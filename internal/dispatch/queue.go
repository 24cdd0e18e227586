package dispatch

import (
	"sync"
	"time"
)

// queue is the coordinator's blocking FIFO: every Run pushes its dispatch
// groups, the dispatcher pool pops them in arrival order. close drains
// gracefully — pops keep returning queued jobs until the queue is empty,
// then report done — so sweeps accepted before Close finish while new ones
// are refused.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	jobs   []*schedJob
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push stamps j's enqueue time and appends it; false means the queue is
// closed and j was refused.
func (q *queue) push(j *schedJob) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	j.enqueued = time.Now()
	q.jobs = append(q.jobs, j)
	q.cond.Signal()
	return true
}

// pop blocks until a job is available and returns the oldest; ok is false
// once the queue is closed and drained.
func (q *queue) pop() (j *schedJob, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.jobs) == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	j = q.jobs[0]
	q.jobs[0] = nil
	q.jobs = q.jobs[1:]
	return j, true
}

// close refuses further pushes and wakes blocked pops; already-queued jobs
// still drain through pop.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
