package iqorg

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU returns the calling OS thread's CPU time. Differences mean
// something only while the goroutine holds its thread
// (runtime.LockOSThread); time the thread spends descheduled is not
// counted, so other processes' load does not inflate it. The clock is the
// scheduler's nanosecond runtime: getrusage(RUSAGE_THREAD) reports the same
// total split by tick sampling, which moves in steps of up to a 4 ms tick,
// as coarse as one timed block.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
