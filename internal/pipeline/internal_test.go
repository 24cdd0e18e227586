package pipeline

import (
	"testing"

	"visasim/internal/isa"
	"visasim/internal/trace"
	"visasim/internal/uarch"
)

func fqUop(tag bool) *uarch.Uop {
	in := &isa.Inst{Kind: isa.IntALU, Dest: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	return &uarch.Uop{Dyn: trace.DynInst{Static: in}, ACETag: tag, IQSlot: -1, LSQSlot: -1}
}

func TestFetchQueueFIFO(t *testing.T) {
	q := newFetchQueue(3)
	a, b, c := fqUop(false), fqUop(true), fqUop(false)
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if !q.Full() {
		t.Fatal("queue should be full")
	}
	if q.Head() != a || q.Pop() != a || q.Pop() != b {
		t.Fatal("FIFO order broken")
	}
	q.Push(a) // wraparound
	if q.Pop() != c || q.Pop() != a {
		t.Fatal("wraparound order broken")
	}
	if q.Len() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestFetchQueueOverflowPanics(t *testing.T) {
	q := newFetchQueue(1)
	q.Push(fqUop(false))
	defer func() {
		if recover() == nil {
			t.Fatal("overflow must panic")
		}
	}()
	q.Push(fqUop(false))
}

func TestThreadFqTagCounting(t *testing.T) {
	th := &thread{fq: newFetchQueue(8)}
	th.fqPush(fqUop(true))
	th.fqPush(fqUop(false))
	th.fqPush(fqUop(true))
	if th.fqACETag != 2 {
		t.Fatalf("fqACETag = %d", th.fqACETag)
	}
	th.fqPop()
	if th.fqACETag != 1 {
		t.Fatalf("fqACETag after pop = %d", th.fqACETag)
	}
	th.fq.Drain(func(*uarch.Uop) {})
	// Drain bypasses fqPop deliberately (callers adjust); counting via
	// fqPop only.
}

func TestICountKey(t *testing.T) {
	iq := uarch.NewIQ(8)
	th := &thread{id: 0, fq: newFetchQueue(8)}
	th.fqPush(fqUop(false))
	th.fqPush(fqUop(false))
	u := fqUop(false)
	u.Thread = 0
	iq.Insert(u)
	if got := th.icount(iq); got != 3 {
		t.Fatalf("icount = %d, want 3", got)
	}
}

func TestNoDecisionNeutral(t *testing.T) {
	d := NoDecision()
	if d.IQLCap >= 0 || d.WaitingCap >= 0 || d.UseFlush {
		t.Fatal("NoDecision is not neutral")
	}
	for _, g := range d.GateDispatch {
		if g {
			t.Fatal("NoDecision gates a thread")
		}
	}
}
