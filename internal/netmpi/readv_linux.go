package netmpi

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// vecReader is the read side of a bare TCP connection. Besides Read, it
// fills a frame's payload segments and trailer with one readv(2) per wakeup
// (readFullv), so that a panel lands in its destination's strips without a
// read per strip. Everything a read needs is made once per connection — the
// raw connection, the iovec slice, the callback — so that a warm read
// allocates nothing. Only the connection's reader, under its read lock, uses
// it.
type vecReader struct {
	*net.TCPConn
	raw  syscall.RawConn
	iov  []syscall.Iovec
	fill func(fd uintptr) bool // v.readv, bound once
	n    int                   // bytes the last readv returned
	err  error                 // its error
	// reads counts the readv calls that returned data, for the tests.
	reads int
}

// maxIovecs is IOV_MAX on Linux: the most buffers one readv takes.
const maxIovecs = 1024

// newFrameReader returns what frames are read from on c: a vecReader for a
// bare TCP connection, c itself otherwise.
func newFrameReader(c net.Conn) io.Reader {
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c
	}
	raw, err := tc.SyscallConn()
	if err != nil {
		return c
	}
	v := &vecReader{TCPConn: tc, raw: raw}
	v.fill = v.readv
	return v
}

// readFullv fills bufs in order. A readv that returns fewer bytes than asked
// for resumes where it stopped, in the middle of a buffer if need be. The
// connection's read deadline bounds every wait, as it bounds Read.
func (v *vecReader) readFullv(bufs [][]byte) error {
	err := v.fillAll(bufs)
	clear(v.iov[:cap(v.iov)]) // do not pin the caller's buffers
	return err
}

func (v *vecReader) fillAll(bufs [][]byte) error {
	got := 0
	for {
		for len(bufs) > 0 && len(bufs[0]) == 0 {
			bufs = bufs[1:]
		}
		if len(bufs) == 0 {
			return nil
		}
		v.iov = v.iov[:0]
		for _, b := range bufs[:min(len(bufs), maxIovecs)] {
			if len(b) > 0 {
				iov := syscall.Iovec{Base: &b[0]}
				iov.SetLen(len(b))
				v.iov = append(v.iov, iov)
			}
		}
		v.n, v.err = 0, nil
		if err := v.raw.Read(v.fill); err != nil {
			return err
		}
		if v.err != nil {
			return v.err
		}
		if v.n == 0 {
			if got == 0 {
				return io.EOF
			}
			return io.ErrUnexpectedEOF
		}
		got += v.n
		for n := v.n; n > 0; {
			if k := len(bufs[0]); k <= n {
				bufs, n = bufs[1:], n-k
			} else {
				bufs[0], n = bufs[0][n:], 0
			}
		}
	}
}

// readv makes one readv(2) call on fd, the raw connection's callback: false
// asks to be called again once fd is readable.
func (v *vecReader) readv(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall(syscall.SYS_READV, fd, uintptr(unsafe.Pointer(&v.iov[0])), uintptr(len(v.iov)))
		switch errno {
		case 0:
			v.n = int(n)
			if n > 0 {
				v.reads++
			}
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			v.err = os.NewSyscallError("readv", errno)
			return true
		}
	}
}
