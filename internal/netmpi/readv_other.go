//go:build !linux

package netmpi

import (
	"io"
	"net"
)

// newFrameReader returns c: off Linux, where the vectored read was not
// measured, every payload segment is read with its own io.ReadFull.
func newFrameReader(c net.Conn) io.Reader { return c }
