package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps with the kernel's high-resolution timer: a timerfd,
// read through the runtime's network poller so that the goroutine parks
// instead of spinning. time.Sleep wakes on the runtime's millisecond
// poll granularity on Linux, which would add up to a millisecond of
// generator lateness to requests that take a tenth of that.
type waiter struct {
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

func newWaiter() (*waiter, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &waiter{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns after d.
func (w *waiter) sleep(d time.Duration) error {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	raw, err := w.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := raw.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err = w.f.Read(w.buf[:])
	return err
}

// close releases the timer; a nil waiter has nothing to release.
func (w *waiter) close() {
	if w != nil {
		w.f.Close()
	}
}
