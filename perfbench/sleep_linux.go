package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer wakes the open-loop generator when a request is due. The runtime's
// timers wake a sleeping process with millisecond granularity on Linux,
// which would make the generator send late; reading a timerfd through the
// runtime's network poller wakes on the kernel's high-resolution timer
// instead and, unlike a nanosleep syscall, holds no processor while it
// waits.
type pacer struct {
	fd uintptr
	f  *os.File // the same descriptor, non-blocking, for the poller
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, errno
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d.
func (p *pacer) sleep(d time.Duration) error {
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // interval, then value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return errno
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
