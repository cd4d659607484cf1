//go:build wiotpoison

package wiot

// poisonReturnedWindows makes the station fill every window array it
// takes back with NaN, so a detector that keeps a lent window without
// copying it reads NaN (go test -tags wiotpoison ./..., make poison).
const poisonReturnedWindows = true
