package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps until a deadline with microsecond precision. The Go
// runtime parks an idle process in a millisecond-granular wait, which
// would put up to a millisecond of generator error into every latency,
// and a blocking nanosleep would hold a scheduler slot while it sleeps.
// A non-blocking timerfd read through the runtime's poller does neither:
// the goroutine parks, and the poller wakes it when the timer fires.
type waiter struct {
	f   *os.File
	fd  uintptr
	buf [8]byte
}

func newWaiter() (*waiter, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &waiter{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil blocks until t; it returns at once if t has passed.
func (w *waiter) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(d)
		return
	}
	if _, err := w.f.Read(w.buf[:]); err != nil {
		time.Sleep(time.Until(t))
	}
}

func (w *waiter) close() { w.f.Close() }
