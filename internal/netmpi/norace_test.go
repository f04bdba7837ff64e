//go:build !race

package netmpi

const raceEnabled = false
