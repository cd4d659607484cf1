package wiot

// RFC 1982-style serial arithmetic over the u32 sequence space. The
// go-back-N cursors (the station's per-sensor cursor, the sink's
// cumulative acks) previously used raw unsigned compares, which invert
// once a long-lived stream wraps past 2³²−1: frame 0 looks "older" than
// frame 4294967295 and the window deadlocks. Interpreting the difference
// as a signed 32-bit value keeps ordering correct for any two sequences
// less than 2³¹ apart — far wider than any bounded in-flight window.

// seqAfter reports whether a is strictly later than b in serial order.
func seqAfter(a, b uint32) bool { return int32(a-b) > 0 }

// seqBefore reports whether a is strictly earlier than b in serial order.
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }

// seqMax returns the serially later of a and b.
func seqMax(a, b uint32) uint32 {
	if seqAfter(a, b) {
		return a
	}
	return b
}
