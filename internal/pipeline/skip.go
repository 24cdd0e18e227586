package pipeline

import "math/bits"

// Dead-cycle skip-ahead.
//
// On memory-bound workloads the machine spends long spans with nothing to
// do: every thread stalled on an L2 miss, the issue queue holding only
// waiting uops and loads parked behind unissued stores, the front end
// gated. Stepping those cycles one at a time costs the full stage walk per
// cycle for zero state change. skipAhead proves a span dead — no stage
// could do work before some future event — and jumps the clock there in
// O(1), folding the span's per-cycle accounting into bulk updates.
//
// Eligibility is decided once per run (Processor.skipOK): a controller or a
// forced decision schedule observes (and can act on) every cycle, so such
// runs always step cycle by cycle. Without them the per-cycle decision is
// the constant NoDecision, decision tracing emits no events, and the only
// per-cycle observers are the statistics boundaries — which the skip target
// is capped to, so boundary cycles are always simulated, never skipped.
// Results, decision traces and telemetry must be byte-identical with skip
// on or off; the parity tests pin that.

// noWake marks "no bounded wake-up event" targets.
const noWake = ^uint64(0)

// skipAhead advances the clock across a maximal dead span, never past
// limit. It returns whether the clock moved. Called between Step calls:
// p.cycle is the next cycle to simulate, and every queue is in its
// end-of-cycle state.
//
// A cycle is dead when each stage provably idles:
//   - issue: the ready list is empty — no uop is ready, or every ready
//     uop is a load parked behind an unissued store;
//   - writeback: this cycle's completion-wheel slot is empty;
//   - commit: no thread's ROB head has completed;
//   - dispatch: every fetch-queue head is absent, not yet decode-ready
//     (wake-up at its ready cycle), or structurally blocked — and a block
//     releases only through a completion event or an organization
//     boundary, both of which bound the skip target;
//   - fetch: every thread is stalled (wake-up at stallUntil), has a full
//     fetch queue, or is policy-gated — and gating clears only when
//     outstanding misses drain, which is again a completion event. Under
//     FLUSH any eligible thread fetches even when gated (the ungate-one
//     exception), so an eligible thread ends the span.
//
// The target is then the earliest future event: the next occupied wheel
// slot, decode-ready and fetch-stall wake-ups, the organization's next
// policy boundary, the next statistics sample/interval boundary cycle, and
// the next invariant-check multiple (so sampled cross-checks keep their
// cadence). Boundary cycles themselves are simulated normally.
func (p *Processor) skipAhead(limit uint64) bool {
	now := p.cycle
	if now >= limit {
		return false
	}
	// The live ready list, not the Step-time census: dispatch may have
	// inserted ready uops after the census was taken, and a parked load
	// counts as ready there but cannot issue before its blocking store
	// does. That store is either on the ready list itself or waiting on a
	// completion, which bounds the target.
	if p.iq.Selectable() != 0 {
		return false // issue has work
	}
	if len(p.wheel[now%wheelSize]) != 0 {
		return false // writeback has work
	}
	target := limit
	if p.wheelCount != 0 {
		if next := p.nextWheelEvent(now); next < target {
			target = next
		}
	}
	for _, t := range p.threads {
		if t.rob.HeadCompleted() {
			return false // commit has work
		}
		if dr, ok := t.fq.HeadReadyAt(); ok {
			if dr > now {
				if dr < target {
					target = dr
				}
			} else if p.headCanDispatch(t) {
				return false // dispatch has work
			}
			// Structurally blocked head: unblocks only via completion
			// events or an organization boundary, both already bounding
			// target.
		}
		if !t.fq.Full() {
			if t.stallUntil > now {
				if t.stallUntil < target {
					target = t.stallUntil
				}
			} else if p.pol.kind == PolicyFLUSH || !p.pol.gated(t, false) {
				return false // fetch has work (FLUSH ungates one candidate)
			}
			// Gated: clears only when outstanding misses drain (wheel).
		}
	}
	if nb := p.org.NextBoundary(now); nb < target {
		target = nb
	}
	target = capAtStatBoundary(target, now, p.sampleCycles)
	target = capAtStatBoundary(target, now, p.intervalCycles)
	if p.invariantEvery > 0 {
		if next := (now/p.invariantEvery + 1) * p.invariantEvery; next < target {
			target = next
		}
	}
	if target <= now {
		return false
	}

	// Bulk-account the skipped cycles [now, target). No uop enters,
	// leaves, wakes or unparks during a dead span, so each cycle would
	// have observed this census; the AVF and occupancy integrals are
	// lazily settled against absolute cycles, so they need no update
	// here. The organization folds its elided EndCycle calls into one span
	// update (occupancy is constant across a dead span and the span never
	// crosses its boundary). SkippedCycles counts only spans with no ready
	// uop at all.
	d := target - now
	c := p.iq.Census()
	p.rqHist.ObserveN(c.Ready, c.ReadyACE, d)
	p.ivReadySum += uint64(c.Ready) * d
	p.org.EndCycleSpan(now, target)
	if c.Ready == 0 {
		p.skippedCycles += d
	}
	p.cycle = target
	return true
}

// headCanDispatch reports whether t's decode-ready fetch-queue head could
// enter the machine this cycle — the dead-span mirror of dispatch's gates
// under NoDecision (no IQL cap, no waiting cap, no thread gating).
func (p *Processor) headCanDispatch(t *thread) bool {
	if t.rob.Full() || (t.fq.HeadIsMem() && t.lsq.Full()) || p.iq.Full() {
		return false
	}
	return p.org.CanAccept(t.id)
}

// nextWheelEvent returns the cycle of the first occupied completion-wheel
// slot strictly after now (noWake when the wheel is empty), scanning the
// occupancy bitmap a word at a time.
func (p *Processor) nextWheelEvent(now uint64) uint64 {
	const words = wheelSize / 64
	start := (now + 1) % wheelSize
	wi := int(start) / 64
	w := p.wheelBits[wi] &^ (1<<(start%64) - 1)
	for i := 0; i <= words; i++ {
		if w != 0 {
			slot := uint64(wi)*64 + uint64(bits.TrailingZeros64(w))
			return now + 1 + (slot+wheelSize-start)%wheelSize
		}
		wi = (wi + 1) % words
		w = p.wheelBits[wi]
	}
	return noWake
}

// capAtStatBoundary caps a skip target so the next statistics boundary
// cycle — the smallest c >= now with (c+1) % every == 0, where account
// settles samples or closes an interval — is simulated rather than skipped.
func capAtStatBoundary(target, now, every uint64) uint64 {
	if b := (now+every)/every*every - 1; b < target {
		return b
	}
	return target
}
