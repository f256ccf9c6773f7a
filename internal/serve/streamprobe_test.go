package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// streamProbeResult compares peak in-process heap while answering the same
// batch — far beyond the buffered service limit — once buffered (the probe
// server's MaxBatch is raised to admit it) and once streamed. Both legs
// carry identical requests and identical solve work; only the response
// path differs, so the heap gap is exactly the buffered path's
// O(batch)-results footprint that streaming avoids. Bounded streaming
// memory means HeapRatio stays at or below ~1 while the batch is ≥10× the
// service's buffered limit.
type streamProbeResult struct {
	// Batch is the graphs per probe request; at least 10× BufferedLimit.
	Batch int
	// BufferedLimit is the service's default buffered batch cap.
	BufferedLimit    int
	BufferedPeakHeap uint64
	StreamPeakHeap   uint64
	HeapRatio        float64
	StreamResults    int
}

// streamProbe sends the same large batch (20× the default buffered limit)
// buffered and streamed against a probe server whose MaxBatch admits it,
// recording peak in-process heap for each leg. Graphs are tiny — the
// request body is noise next to the per-result footprint — and both
// responses are discarded without materializing client-side, so the peak
// reflects how the server holds results: all at once (buffered) vs a
// bounded window (streamed).
func streamProbe(workers int, seed uint64) (*streamProbeResult, error) {
	const bufferedLimit = 64 // Config.MaxBatch default
	batch := 20 * bufferedLimit

	// Tiny distinct graphs: solve work exists but per-result response
	// memory dominates.
	req := SolveRequest{Requests: make([]GraphRequest, batch)}
	for i := range req.Requests {
		g, err := gen.Sprand(gen.SprandConfig{N: 8, M: 24, MinWeight: -1000, MaxWeight: 1000, Seed: seed + uint64(5_000_000+i)})
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		if err := graph.Write(&text, g); err != nil {
			return nil, err
		}
		req.Requests[i] = GraphRequest{Text: text.String()}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}

	// discard drains a response counting lines, holding only a fixed chunk.
	discard := func(resp *http.Response) (int, error) {
		defer resp.Body.Close()
		lines := 0
		chunk := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(chunk)
			lines += bytes.Count(chunk[:n], []byte("\n"))
			if err != nil {
				if errors.Is(err, io.EOF) {
					return lines, nil
				}
				return lines, err
			}
		}
	}

	probe := &streamProbeResult{Batch: batch, BufferedLimit: bufferedLimit}
	for _, leg := range []struct {
		name   string
		suffix string
		// queueDepth shapes the leg's server: the buffered leg needs an
		// admission window covering the whole batch (all-or-nothing
		// admission at streaming scale is exactly what we are costing);
		// the streamed leg keeps the production-default bounded window.
		queueDepth int
		peak       *uint64
		lines      *int
	}{
		{"buffered", "", batch, &probe.BufferedPeakHeap, nil},
		{"streamed", "?stream=1", 0, &probe.StreamPeakHeap, &probe.StreamResults},
	} {
		ts := httptest.NewServer(NewServer(Config{
			Workers:      workers,
			QueueDepth:   leg.queueDepth,
			MaxBatch:     batch, // raised so the buffered leg is admitted at all
			MaxBodyBytes: 256 << 20,
			NoCache:      true, // every graph solves on both legs
		}))

		hw := testutil.WatchHeap()
		resp, err := ts.Client().Post(ts.URL+"/v1/solve"+leg.suffix, "application/json", bytes.NewReader(body))
		if err != nil {
			ts.Close()
			return nil, err
		}
		status := resp.StatusCode
		lines, err := discard(resp)
		*leg.peak = hw.Peak()
		ts.Close()
		if err != nil {
			return nil, fmt.Errorf("stream probe %s leg: %w", leg.name, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("stream probe %s leg: status %d", leg.name, status)
		}
		if leg.lines != nil {
			*leg.lines = lines - 1 // minus the trailer
			if *leg.lines != batch {
				return nil, fmt.Errorf("stream probe: %d result lines, want %d", *leg.lines, batch)
			}
		}
	}
	if probe.BufferedPeakHeap > 0 {
		probe.HeapRatio = float64(probe.StreamPeakHeap) / float64(probe.BufferedPeakHeap)
	}
	return probe, nil
}

// TestServeStreamProbe runs the bounded-memory probe at full batch size and
// asserts streaming answered every line while holding peak heap at or below
// the buffered path's — the boundedness claim in miniature.
func TestServeStreamProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("probe solves 2×1280 graphs; skipped in -short")
	}
	probe, err := streamProbe(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if probe.StreamResults != probe.Batch {
		t.Fatalf("stream emitted %d of %d results", probe.StreamResults, probe.Batch)
	}
	if probe.Batch < 10*probe.BufferedLimit {
		t.Fatalf("probe batch %d below 10× the buffered limit %d", probe.Batch, probe.BufferedLimit)
	}
	// Allow generous slack for GC timing noise; the claim is that streaming
	// does not pay the buffered path's O(batch) response footprint.
	if probe.HeapRatio > 1.5 {
		t.Fatalf("streaming peak heap %.2fx the buffered path's (buffered %d, stream %d bytes)",
			probe.HeapRatio, probe.BufferedPeakHeap, probe.StreamPeakHeap)
	}
}
