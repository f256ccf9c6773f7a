package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestLimitSizes(t *testing.T) {
	sizes := limitSizes(1024)
	if len(sizes) != 10 {
		t.Fatalf("got %d sizes, want 10 (n=512 and n=1024, five densities each)", len(sizes))
	}
	for _, s := range sizes {
		if s[0] > 1024 {
			t.Fatalf("size %v exceeds maxn", s)
		}
		if s[1] < s[0] || s[1] > 3*s[0] {
			t.Fatalf("size %v outside the m/n in [1,3] grid", s)
		}
	}
	if len(limitSizes(100)) != 0 {
		t.Fatal("maxn below 512 must produce an empty grid")
	}
}

// TestUnknownTableExitsBeforeSweep feeds names that are not tables, among
// them two of the feature tables this command used to have. Each must exit 2
// with the list of tables and write nothing to stdout, with and without
// -json; the sweep flags are small, so a sweep run by mistake would show up
// as output rather than as a slow test.
func TestUnknownTableExitsBeforeSweep(t *testing.T) {
	for _, name := range []string{"kernel", "session-delta", "nosuch"} {
		for _, extra := range [][]string{nil, {"-json"}} {
			args := append([]string{"-table", name, "-maxn", "512", "-seeds", "1", "-algos", "howard"}, extra...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("%v: exit %d, want 2", args, code)
			}
			if stdout.Len() != 0 {
				t.Errorf("%v: wrote %d bytes to stdout, want none:\n%s", args, stdout.Len(), stdout.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, name) || !strings.Contains(msg, strings.Join(bench.Tables, ", ")) {
				t.Errorf("%v: stderr %q does not name the table and list the known ones", args, msg)
			}
		}
	}
}

func TestRunHeapOps(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-table", "heapops", "-maxn", "512", "-seeds", "1", "-algos", "ko,yto"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "E-42") {
		t.Fatalf("heapops table missing its E-42 header:\n%s", stdout.String())
	}
}
