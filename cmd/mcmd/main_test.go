package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// startDaemon runs the full daemon lifecycle on an ephemeral port and
// returns its base URL, a cancel that models SIGTERM, and the channel
// carrying runListener's exit error.
func startDaemon(t *testing.T, cfg serve.Config) (url string, sigterm context.CancelFunc, done <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- runListener(ctx, ln, cfg, 5*time.Second, false) }()
	t.Cleanup(cancel)
	return "http://" + ln.Addr().String(), cancel, errc
}

func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonLifecycle boots the daemon, solves a batch over the wire, then
// delivers the shutdown signal and asserts a clean drain (nil exit error).
func TestDaemonLifecycle(t *testing.T) {
	url, sigterm, done := startDaemon(t, serve.Config{Workers: 2})
	waitHealthy(t, url)

	body := `{"requests":[
		{"id":"mean","text":"p mcm 3 3\na 1 2 1\na 2 3 2\na 3 1 6\n"},
		{"id":"ratio","text":"p mcm 2 2\na 1 2 4 2\na 2 1 4 2\n","problem":"ratio"}
	]}`
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out serve.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
		t.Fatalf("status %d, %d results", resp.StatusCode, len(out.Results))
	}
	for _, res := range out.Results {
		if !res.OK || res.Value == nil {
			t.Fatalf("%s: %+v", res.ID, res.Error)
		}
		switch res.ID {
		case "mean": // cycle weight 9, length 3
			if res.Value.Num != 3 || res.Value.Den != 1 {
				t.Fatalf("mean %d/%d, want 3/1", res.Value.Num, res.Value.Den)
			}
		case "ratio": // cycle weight 8, transit 4
			if res.Value.Num != 2 || res.Value.Den != 1 {
				t.Fatalf("ratio %d/%d, want 2/1", res.Value.Num, res.Value.Den)
			}
		}
	}

	// /debug/vars answers on the same listener.
	vresp, err := http.Get(url + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Serve map[string]any `json:"serve"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if got := vars.Serve["graphs_ok"].(float64); got != 2 {
		t.Fatalf("graphs_ok = %v, want 2", got)
	}

	sigterm()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after signal")
	}

	// The listener is gone after drain.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("daemon still answering after shutdown")
	}
}

// TestDaemonBindFailure pins the error path: binding an already-taken port
// fails fast with the listen error rather than hanging.
func TestDaemonBindFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, ln.Addr().String(), serve.Config{Workers: 1}, time.Second, false); err == nil {
		t.Fatal("expected a bind error on an occupied port")
	}
}

// TestDaemonConnectionLimits: the server bounds how long a client may take
// over its headers and how long an idle connection stays open, and answers
// headers past its limit with 431 instead of reading them.
func TestDaemonConnectionLimits(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 || s.MaxHeaderBytes <= 0 {
		t.Fatalf("connection limits unset: header timeout %v, idle timeout %v, max header bytes %d",
			s.ReadHeaderTimeout, s.IdleTimeout, s.MaxHeaderBytes)
	}
	if s.ReadTimeout != 0 || s.WriteTimeout != 0 {
		t.Fatalf("read/write timeouts %v/%v would cut /v1/session streams", s.ReadTimeout, s.WriteTimeout)
	}

	url, sigterm, done := startDaemon(t, serve.Config{Workers: 1})
	waitHealthy(t, url)
	defer func() {
		sigterm()
		if err := <-done; err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	}()
	req, err := http.NewRequest(http.MethodGet, url+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("x", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized headers: status %d, want %d", resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
	}
}
