package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPU is CLOCK_PROCESS_CPUTIME_ID: CPU time consumed by every
// thread of this process, so it excludes steal and preemption but still
// counts garbage-collection work done on another core.
const clockProcessCPU = 2

// cpuNow reads the process CPU clock.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
