package testutil

import (
	"runtime"
	"time"
)

// HeapWatcher samples the in-process heap (runtime.MemStats.HeapAlloc)
// every 2 ms from its own goroutine until Peak stops it.
type HeapWatcher struct {
	stop chan struct{}
	done chan uint64
}

// WatchHeap collects garbage and starts a watcher, so every watched leg
// starts from the same baseline and its peak measures that leg, not what
// earlier code left behind. It collects twice: sync.Pool keeps its contents
// through one collection as a victim cache, and pooled solver workspaces
// left by earlier tests in the same binary can reach tens of MiB.
func WatchHeap() *HeapWatcher {
	runtime.GC()
	runtime.GC()
	w := &HeapWatcher{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		var peak uint64
		var ms runtime.MemStats
		sample := func() {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				sample()
				w.done <- peak
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return w
}

// Peak stops the watcher and returns the largest HeapAlloc it sampled,
// including one final sample taken on stopping. Call it once.
func (w *HeapWatcher) Peak() uint64 {
	close(w.stop)
	return <-w.done
}
