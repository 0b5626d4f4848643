package termline

import (
	"sync"
	"testing"
)

// TestInactivePrinterIsSafe covers the non-terminal path every test and
// CI run takes: all methods must be callable (concurrently) without
// writing or panicking.
func TestInactivePrinterIsSafe(t *testing.T) {
	p := New() // stderr is not a terminal under `go test`
	if p.active {
		t.Skip("stderr unexpectedly a terminal")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.Printf("progress %d...", j)
			}
			p.Clear()
		}()
	}
	wg.Wait()
}

// TestThrottleClaim exercises the redraw claim on a forced-active
// printer: concurrent bursts must not panic and the claim must admit at
// least one write.
func TestThrottleClaim(t *testing.T) {
	// Force-active: the redraws land on the test harness's captured
	// stderr, which is harmless.
	p := &Printer{active: true}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p.Printf("x")
			}
		}()
	}
	wg.Wait()
	if !p.printed.Load() {
		t.Error("no redraw was ever admitted")
	}
	p.Clear()
}
