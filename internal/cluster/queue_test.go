package cluster

import (
	"sync"
	"testing"
	"time"
)

func drain(t *testing.T, q *Queue) []*Item {
	t.Helper()
	q.Close()
	var out []*Item
	for {
		it, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, it)
	}
}

func TestQueuePriorityFCFSOrder(t *testing.T) {
	q := NewQueue()
	q.Push(&Item{Class: Bulk, Payload: "b1"})
	q.Push(&Item{Class: Standard, Payload: "s1"})
	q.Push(&Item{Class: Interactive, Payload: "i1"})
	q.Push(&Item{Class: Bulk, Payload: "b2"})
	q.Push(&Item{Class: Interactive, Payload: "i2"})
	want := []string{"i1", "i2", "s1", "b1", "b2"}
	for i, it := range drain(t, q) {
		if it.Payload.(string) != want[i] {
			t.Fatalf("pop %d = %v, want %s", i, it.Payload, want[i])
		}
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := NewQueue()
	got := make(chan *Item, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		it, ok := q.Pop()
		if !ok {
			t.Error("Pop returned !ok before Close")
		}
		got <- it
	}()
	time.Sleep(10 * time.Millisecond) // let the Pop block
	q.Push(&Item{Payload: "late"})
	select {
	case it := <-got:
		if it.Payload.(string) != "late" {
			t.Fatalf("popped %v", it.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Pop did not wake on Push")
	}
	wg.Wait()
}

func TestQueueCloseDrainsThenRefuses(t *testing.T) {
	q := NewQueue()
	if !q.Push(&Item{Payload: "queued"}) {
		t.Fatal("Push before Close refused")
	}
	q.Close()
	if q.Push(&Item{Payload: "rejected"}) {
		t.Fatal("Push after Close accepted")
	}
	// The queued item still drains...
	if it, ok := q.Pop(); !ok || it.Payload.(string) != "queued" {
		t.Fatalf("post-Close Pop = %v, %v", it, ok)
	}
	// ...and only then does Pop report done.
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop after drain reported an item")
	}
}

func TestQueueLenByClassAndEnqueueStamp(t *testing.T) {
	q := NewQueue()
	it := &Item{Class: Bulk}
	q.Push(it)
	q.Push(&Item{Class: Interactive})
	if it.Enqueued.IsZero() {
		t.Fatal("Push did not stamp Enqueued")
	}
	if q.Len() != 2 || q.LenByClass(Bulk) != 1 || q.LenByClass(Interactive) != 1 || q.LenByClass(Standard) != 0 {
		t.Fatalf("lens = %d bulk=%d inter=%d std=%d", q.Len(), q.LenByClass(Bulk), q.LenByClass(Interactive), q.LenByClass(Standard))
	}
	q.Pop()
	if q.LenByClass(Interactive) != 0 {
		t.Fatal("Pop did not decrement the popped class")
	}
}
