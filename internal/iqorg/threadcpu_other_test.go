//go:build !linux

package iqorg

import "time"

// threadCPU falls back to wall time where no per-thread CPU clock is wired.
func threadCPU() time.Duration { return time.Duration(time.Now().UnixNano()) }
