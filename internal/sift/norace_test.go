//go:build !race

package sift

const raceEnabled = false
