package cluster

import (
	"container/heap"
	"sync"
	"time"
)

// Item is one schedulable unit of work.
type Item struct {
	// Class is the item's priority class; lower schedules first.
	Class PriorityClass
	// Enqueued is when the item entered the queue; Push stamps it when
	// zero. Queue-wait metrics derive from it.
	Enqueued time.Time
	// Payload is the caller's work (the dispatch coordinator stores its
	// per-group scheduling state here).
	Payload any

	seq uint64 // FCFS tiebreak: Push order
}

// Queue is a blocking scheduling queue: producers Push work, a fixed pool
// of consumers Pop it in strict class priority, first-come-first-served
// within a class: interactive sweeps jump bulk scans, and nothing inside a
// class can starve. Close drains gracefully — Pops keep returning queued
// items until the queue is empty, then report done — so in-flight sweeps
// finish while new ones are refused.
type Queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	h      itemHeap
	closed bool
	seq    uint64
	byCls  [NumClasses]int
}

// NewQueue builds an empty queue.
func NewQueue() *Queue {
	q := &Queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues it; false means the queue is closed and the item was
// refused.
func (q *Queue) Push(it *Item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if it.Enqueued.IsZero() {
		it.Enqueued = time.Now()
	}
	q.seq++
	it.seq = q.seq
	heap.Push(&q.h, it)
	if int(it.Class) < NumClasses {
		q.byCls[it.Class]++
	}
	q.cond.Signal()
	return true
}

// Pop blocks until an item is available and returns the first in
// priority-FCFS order; ok is false once the queue is closed and drained.
func (q *Queue) Pop() (*Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.h) == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	it := heap.Pop(&q.h).(*Item)
	if int(it.Class) < NumClasses {
		q.byCls[it.Class]--
	}
	return it, true
}

// Close refuses further Pushes and wakes blocked Pops; already-queued items
// still drain through Pop.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Len returns how many items are waiting.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// LenByClass returns how many items of one class are waiting.
func (q *Queue) LenByClass(c PriorityClass) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if int(c) >= NumClasses {
		return 0
	}
	return q.byCls[c]
}

// itemHeap implements container/heap in priority-FCFS order. Callers hold
// the Queue mutex.
type itemHeap []*Item

func (h itemHeap) Len() int { return len(h) }

func (h itemHeap) Less(i, j int) bool {
	if h[i].Class != h[j].Class {
		return h[i].Class < h[j].Class
	}
	return h[i].seq < h[j].seq
}

func (h itemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *itemHeap) Push(x any) { *h = append(*h, x.(*Item)) }

func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
