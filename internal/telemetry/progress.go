package telemetry

import (
	"fmt"
	"io"
	"time"
)

// Reporter renders campaign progress from the stream bus: one line per
// newly completed trial, with a wall-clock ETA extrapolated from the
// completion rate. It is the one progress mechanism: a solo run is a
// one-trial campaign, so it reports once, at completion. The Reporter is
// monotonic by construction — trial_finished events carry
// the campaign's completed count, and lines are emitted only when that
// count advances, so dropped or transposed bus events can never make
// progress appear to move backwards.
//
// The Reporter writes to the io.Writer it is given; cmd/ binaries pass
// stderr, keeping progress chatter out of piped JSON output.
type Reporter struct {
	// Bus is the campaign stream to follow.
	Bus *Bus
	// Total is the campaign trial count (for percentages and ETA).
	Total int
	// W receives one line per completion. Callers pass stderr.
	W io.Writer
	// Clock supplies wall time for elapsed/ETA. Nil uses event stamps
	// only.
	Clock Clock

	last int
}

// Run subscribes to the bus and reports until stop closes. It is meant
// to run on its own goroutine; it never blocks the publisher (the bus
// drops on overflow) and the monotonic guard makes drops harmless.
func (r *Reporter) Run(stop <-chan struct{}) {
	sub := r.Bus.Subscribe(256)
	defer r.Bus.Unsubscribe(sub)
	var start time.Time
	if r.Clock != nil {
		start = r.Clock()
	}
	for {
		select {
		case <-stop:
			// Drain what the bus already delivered so the final
			// "trials N/N" line is not lost to the shutdown race.
			for {
				select {
				case ev, ok := <-sub.C:
					if !ok {
						return
					}
					r.maybeReport(ev, start)
				default:
					return
				}
			}
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			r.maybeReport(ev, start)
		}
	}
}

func (r *Reporter) maybeReport(ev StreamEvent, start time.Time) {
	if ev.Type != EventTrialFinished || ev.Completed <= r.last {
		return
	}
	r.last = ev.Completed
	r.report(ev, start)
}

func (r *Reporter) report(ev StreamEvent, start time.Time) {
	total := r.Total
	if total <= 0 {
		total = ev.Total
	}
	now := wallOf(ev)
	if r.Clock != nil {
		now = r.Clock()
	}
	elapsed := now.Sub(start).Seconds()
	if start.IsZero() {
		elapsed = 0
	}
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(ev.Completed) / float64(total)
	}
	line := fmt.Sprintf("progress: trials %d/%d (%.0f%%) elapsed %.1fs",
		ev.Completed, total, pct, elapsed)
	if ev.Completed > 0 && ev.Completed < total && elapsed > 0 {
		eta := elapsed / float64(ev.Completed) * float64(total-ev.Completed)
		line += fmt.Sprintf(" eta %.1fs", eta)
	}
	fmt.Fprintln(r.W, line)
}
