package comm

import "math"

// The collectives carry float32 words. A float64 — or an int64 carried as
// math.Float64frombits(uint64(n)) — crosses them losslessly as two words
// holding the raw halves of its bit pattern, low half first. The words are
// bit patterns, not values: never do arithmetic on them.

// AppendF64 appends v's bit pattern to words as two float32 words.
func AppendF64(words []float32, v float64) []float32 {
	b := math.Float64bits(v)
	return append(words, math.Float32frombits(uint32(b)), math.Float32frombits(uint32(b>>32)))
}

// F64 reassembles the float64 AppendF64 wrote at words[0:2].
func F64(words []float32) float64 {
	return math.Float64frombits(uint64(math.Float32bits(words[0])) | uint64(math.Float32bits(words[1]))<<32)
}
