package tensor

import "math"

// expChunk is how many exps of a row LogSumExpRow (and the loss that
// calls it) hand Exp at a time, from a buffer on the stack.
const expChunk = 64

// LogSumExpRow returns log(Σ exp(row)) computed stably: each exp is taken
// of float64(v − max), by Exp, and the exps are summed in float64 in row
// order.
func LogSumExpRow(row []float32) float64 {
	maxV := row[0]
	for _, v := range row[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var buf [expChunk]float64
	var sum float64
	for j := 0; j < len(row); j += expChunk {
		e := buf[:min(expChunk, len(row)-j)]
		for i := range e {
			e[i] = float64(row[j+i] - maxV)
		}
		Exp(e, e)
		for _, v := range e {
			sum += v
		}
	}
	return float64(maxV) + math.Log(sum)
}
