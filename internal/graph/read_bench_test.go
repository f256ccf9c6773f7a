package graph_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// sprandText returns a graph shaped like the mean-sprand benchmark's inputs
// (SPRAND, n = 2048, m = 8192, w ∈ [−5000, 10000]) and its text form.
func sprandText(tb testing.TB) (*graph.Graph, []byte) {
	tb.Helper()
	g, err := gen.Sprand(gen.SprandConfig{N: 2048, M: 8192, MinWeight: -5000, MaxWeight: 10000, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return g, buf.Bytes()
}

func BenchmarkRead(b *testing.B) {
	_, text := sprandText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Read(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	g, text := sprandText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := graph.Write(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadAllocsPerOpPinned pins the objects one Read of the mean-sprand
// text allocates: the scanner's 64 KiB buffer, the arc slice (its capped
// prealloc and the one growth to the promised count), the CSR indexes and
// the Graph. A per-line or per-field allocation would add thousands.
func TestReadAllocsPerOpPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	_, text := sprandText(t)
	avg := testing.AllocsPerRun(20, func() {
		if _, err := graph.Read(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10 {
		t.Errorf("Read allocates %.1f objects/op, pinned at <= 10", avg)
	}
}
