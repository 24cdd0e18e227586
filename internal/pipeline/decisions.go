package pipeline

import "visasim/internal/decision"

// This file is the pipeline side of decision tracing and counterfactual
// replay (DESIGN.md §10): edge-detecting the controller's effective
// directive into decision.Events, and applying a forced-action schedule on
// top of the live controller. Recording is pure observation — a run with a
// sink attached simulates the exact same machine as one without — and an
// empty schedule forces nothing, which is what makes an untouched replay
// byte-identical to the recorded run.

// gateMask packs the per-thread dispatch gates of d into one bit per
// thread (MaxThreads is 8, so a uint8 always fits).
func gateMask(d *Decision, n int) uint8 {
	var m uint8
	for i := 0; i < n; i++ {
		if d.GateDispatch[i] {
			m |= 1 << i
		}
	}
	return m
}

// applyForced overlays the schedule's overrides for this cycle onto the
// controller's decision and reports whether any field was forced.
func (p *Processor) applyForced(now uint64) bool {
	act, mask, any := p.forced.OverridesAt(now)
	if !any {
		return false
	}
	if mask&decision.ForceIQLCap != 0 {
		p.dec.IQLCap = int(act.IQLCap)
	}
	if mask&decision.ForceWaitingCap != 0 {
		p.dec.WaitingCap = int(act.WaitingCap)
	}
	if mask&decision.ForceUseFlush != 0 {
		p.dec.UseFlush = act.UseFlush
	}
	if mask&decision.ForceGates != 0 {
		for i := 0; i < p.n; i++ {
			p.dec.GateDispatch[i] = act.GateMask&(1<<i) != 0
		}
	}
	return true
}

// snapshotInputs projects the controller-visible View into the portable
// trace form.
func snapshotInputs(v *View) decision.Inputs {
	return decision.Inputs{
		IntervalIndex:    int32(v.IntervalIndex),
		SampleIndex:      int32(v.SampleIndex),
		IQLen:            int32(v.IQLen),
		ReadyLen:         int32(v.ReadyLen),
		WaitingLen:       int32(v.WaitingLen),
		PrevIPC:          v.PrevIPC,
		PrevMeanReadyLen: v.PrevMeanReadyLen,
		PrevL2Misses:     v.PrevL2Misses,
		SampleAVF:        v.SampleAVFTag,
		IntervalAVF:      v.IntervalAVFTagSoFar,
	}
}

// snapshotAction projects the effective decision into the portable trace
// form.
func snapshotAction(d *Decision, n int) decision.Action {
	return decision.Action{
		IQLCap:     int32(d.IQLCap),
		WaitingCap: int32(d.WaitingCap),
		UseFlush:   d.UseFlush,
		GateMask:   gateMask(d, n),
	}
}

// noteDecision closes the decision phase of a cycle: it advances the
// telemetry counters (policySwitches, dvmTriggers — semantics unchanged
// from before tracing existed) and, when a sink is attached, emits one
// event per edge. v is the View the controller decided from; haveView is
// false on controller-less runs, in which case the snapshot is assembled
// lazily and only if an event actually fires (so tracing a base run stays
// free).
func (p *Processor) noteDecision(now uint64, v *View, haveView bool) {
	flushChanged := p.dec.UseFlush != p.prevUseFlush
	capped := p.dec.WaitingCap >= 0
	capChanged := capped != p.prevWaitCapped
	iqlChanged := p.dec.IQLCap != p.recPrevIQLCap
	gm := gateMask(&p.dec, p.n)
	gateChanged := gm != p.recPrevGate

	if flushChanged {
		p.policySwitches++
	}
	if capChanged && capped {
		p.dvmTriggers++
	}

	if p.sink != nil {
		sampleFresh := haveView && p.sink.Level() >= 2 && v.SampleIndex != p.recPrevSample
		if flushChanged || capChanged || iqlChanged || gateChanged || sampleFresh {
			if !haveView {
				p.fillView(v, now)
				haveView = true
			}
			ev := decision.Event{
				Cycle:  now,
				Forced: p.decForced,
				Inputs: snapshotInputs(v),
				Action: snapshotAction(&p.dec, p.n),
			}
			// Fixed emission order keeps same-cycle events — and therefore
			// the encoded trace — deterministic.
			if flushChanged {
				ev.Kind = decision.KindPolicySwitch
				p.sink.Record(ev)
			}
			if capChanged {
				if capped {
					ev.Kind = decision.KindDVMTrigger
				} else {
					ev.Kind = decision.KindDVMRelease
				}
				p.sink.Record(ev)
			}
			if iqlChanged {
				ev.Kind = decision.KindIQLCap
				p.sink.Record(ev)
			}
			if gateChanged {
				ev.Kind = decision.KindGate
				p.sink.Record(ev)
			}
			if sampleFresh {
				ev.Kind = decision.KindSample
				p.sink.Record(ev)
			}
		}
		if haveView {
			p.recPrevSample = v.SampleIndex
		}
	}

	p.prevUseFlush = p.dec.UseFlush
	p.prevWaitCapped = capped
	p.recPrevIQLCap = p.dec.IQLCap
	p.recPrevGate = gm
}
