//go:build !linux

package netmpi

// readsVectored is whether a bare TCP connection reads frames vectored here.
const readsVectored = false
