//go:build !unix

package netmpi

import "net"

// sendBuffer returns 0 where netmpi does not read the send buffer back: such
// a platform posts nothing, and every broadcast runs in schedule order.
func sendBuffer(*net.TCPConn) int { return 0 }
