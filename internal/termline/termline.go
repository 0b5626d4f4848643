// Package termline renders a throttled, self-overwriting status line on
// stderr — the live progress mechanics shared by the CLIs. All terminal
// detection, rate limiting and ANSI clear/redraw logic lives here so the
// binaries cannot drift apart.
package termline

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// throttle bounds redraw frequency; status lines are cosmetic and must
// stay cheap on hot paths.
const throttle = 200 * time.Millisecond

// Printer writes a single self-overwriting line to stderr. It only goes
// live when stderr is a terminal — piped and CI runs keep clean logs —
// and is safe for concurrent use: simultaneous callers race for the
// redraw slot through an atomic timestamp claim, so at most one write
// happens per throttle window and none block.
type Printer struct {
	active   bool
	printed  atomic.Bool
	lastNano atomic.Int64
}

// New probes stderr and returns a Printer that is live only on a
// terminal.
func New() *Printer {
	st, err := os.Stderr.Stat()
	return &Printer{active: err == nil && st.Mode()&os.ModeCharDevice != 0}
}

// Printf redraws the status line with the formatted message, dropping
// calls that land inside the throttle window.
func (p *Printer) Printf(format string, args ...any) {
	if !p.active {
		return
	}
	now := time.Now().UnixNano()
	last := p.lastNano.Load()
	if now-last < int64(throttle) || !p.lastNano.CompareAndSwap(last, now) {
		return
	}
	p.printed.Store(true)
	fmt.Fprintf(os.Stderr, "\r\x1b[K"+format, args...)
}

// Clear erases the status line (if one was ever drawn) so regular
// output starts on a clean row.
func (p *Printer) Clear() {
	if p.active && p.printed.Load() {
		fmt.Fprint(os.Stderr, "\r\x1b[K")
	}
}
