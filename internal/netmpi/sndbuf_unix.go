//go:build unix

package netmpi

import (
	"net"
	"syscall"
)

// sendBuffer returns the connection's send buffer as the kernel reports it
// (SO_SNDBUF), or 0 when it cannot be read.
func sendBuffer(tc *net.TCPConn) int {
	raw, err := tc.SyscallConn()
	if err != nil {
		return 0
	}
	n := 0
	_ = raw.Control(func(fd uintptr) {
		if v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF); err == nil {
			n = v
		}
	})
	return n
}
