package uarch

// ROB is one thread's reorder buffer: a FIFO ring of in-flight uops in
// program (fetch) order. Dispatch appends at the tail; commit pops from the
// head; squash truncates the tail back to a branch.
//
// Alongside the uop ring it keeps a parallel completed-flag ring
// (struct-of-arrays): commit polls the head flag every cycle, and reading
// one dense bool beats dereferencing the head uop just to look at its
// stage — the common case is "head not completed yet".
type ROB struct {
	buf       []*Uop
	completed []bool
	head      int
	len       int
}

// NewROB returns a reorder buffer with size entries.
func NewROB(size int) *ROB {
	return &ROB{buf: make([]*Uop, size), completed: make([]bool, size)}
}

// Size returns the capacity.
func (r *ROB) Size() int { return len(r.buf) }

// Len returns the occupancy.
func (r *ROB) Len() int { return r.len }

// Full reports whether no entry is free.
func (r *ROB) Full() bool { return r.len == len(r.buf) }

// Empty reports whether the buffer holds nothing.
func (r *ROB) Empty() bool { return r.len == 0 }

// Push appends u at the tail and records its slot. It panics when full.
func (r *ROB) Push(u *Uop) {
	if r.Full() {
		panic("uarch: ROB push into full buffer")
	}
	slot := wrap(r.head+r.len, len(r.buf))
	r.buf[slot] = u
	r.completed[slot] = false
	u.ROBSlot = int32(slot)
	r.len++
}

// Head returns the oldest uop, or nil.
func (r *ROB) Head() *Uop {
	if r.len == 0 {
		return nil
	}
	return r.buf[r.head]
}

// HeadCompleted reports whether the buffer is nonempty and its oldest uop
// has completed — the commit stage's per-cycle poll, answered from the
// dense flag ring.
func (r *ROB) HeadCompleted() bool {
	return r.len > 0 && r.completed[r.head]
}

// MarkCompleted sets u's completed flag; writeback calls it when u's stage
// advances to StageCompleted while resident.
func (r *ROB) MarkCompleted(u *Uop) {
	if u.ROBSlot < 0 || r.buf[u.ROBSlot] != u {
		panic("uarch: ROB completion mark for non-resident uop")
	}
	r.completed[u.ROBSlot] = true
}

// Pop removes and returns the oldest uop. It panics when empty.
func (r *ROB) Pop() *Uop {
	if r.len == 0 {
		panic("uarch: ROB pop from empty buffer")
	}
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.completed[r.head] = false
	u.ROBSlot = -1
	r.head = wrap(r.head+1, len(r.buf))
	r.len--
	return u
}

// Tail returns the youngest uop, or nil.
func (r *ROB) Tail() *Uop {
	if r.len == 0 {
		return nil
	}
	return r.buf[wrap(r.head+r.len-1, len(r.buf))]
}

// PopTail removes and returns the youngest uop (squash path). It panics
// when empty.
func (r *ROB) PopTail() *Uop {
	if r.len == 0 {
		panic("uarch: ROB pop-tail from empty buffer")
	}
	i := wrap(r.head+r.len-1, len(r.buf))
	u := r.buf[i]
	r.buf[i] = nil
	r.completed[i] = false
	u.ROBSlot = -1
	r.len--
	return u
}

// ForEach visits uops oldest to youngest.
func (r *ROB) ForEach(f func(*Uop)) {
	for i := 0; i < r.len; i++ {
		f(r.buf[wrap(r.head+i, len(r.buf))])
	}
}

// wrap maps i in [0, 2*size) onto a slot of a ring of that size without
// dividing: the ROB and LSQ sizes (96 and 48 by default) are not powers of
// two.
func wrap(i, size int) int {
	if i >= size {
		i -= size
	}
	return i
}
