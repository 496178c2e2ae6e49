//go:build unix

package serve

import (
	"errors"
	"os"
	"syscall"
)

// entryBuf is the read buffer an entry starts in: one read fills it and
// a second meets end of file for any entry shorter than it.
const entryBuf = 2 << 10

// readFile reads the whole file at path in four system calls when the
// file fits entryBuf: open, read, a read that returns 0 at end of file,
// close. os.ReadFile also fstats the file for a size hint and hands the
// descriptor to the runtime poller, which on Linux refuses a regular file
// (a failed epoll_ctl) after the fcntl calls that set it non-blocking and
// back: 10 system calls in all.
func readFile(path string) ([]byte, error) {
	var fd int
	var err error
	for {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err != syscall.EINTR {
			break
		}
	}
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd) // a descriptor only read from: nothing to lose on close
	buf := make([]byte, 0, entryBuf)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return nil, &os.PathError{Op: "read", Path: path, Err: err}
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// scarce reports whether err is the process or the system short of a
// resource — descriptors or kernel memory — rather than anything about
// the file being read.
func scarce(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) || errors.Is(err, syscall.ENOMEM)
}
