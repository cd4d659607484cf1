//go:build !wiotpoison

package wiot

// poisonReturnedWindows is set in builds tagged wiotpoison; see
// windowArrays.put.
const poisonReturnedWindows = false
