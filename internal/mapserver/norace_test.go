//go:build !race

package mapserver

const raceEnabled = false
