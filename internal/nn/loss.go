package nn

import "distgnn/internal/tensor"

// MaskedCrossEntropy computes mean softmax cross-entropy over the vertex
// subset mask (the labeled training vertices in full-batch GNN training)
// and the gradient ∂L/∂logits, which is zero outside the mask. labels are
// class indices per row of logits. Both exps of a row, the log-sum-exp's
// and the softmax's, go through tensor.Exp, math.Exp's bits four lanes at
// a time.
func MaskedCrossEntropy(logits *tensor.Matrix, labels []int32, mask []int32) (loss float64, grad *tensor.Matrix) {
	grad = tensor.New(logits.Rows, logits.Cols)
	if len(mask) == 0 {
		return 0, grad
	}
	inv := 1.0 / float64(len(mask))
	var buf [64]float64
	for _, v := range mask {
		row := logits.Row(int(v))
		lse := tensor.LogSumExpRow(row)
		y := int(labels[v])
		loss += (lse - float64(row[y])) * inv
		g := grad.Row(int(v))
		for j := 0; j < len(row); j += len(buf) {
			p := buf[:min(len(buf), len(row)-j)]
			for i := range p {
				p[i] = float64(row[j+i]) - lse
			}
			tensor.Exp(p, p)
			for i, e := range p {
				g[j+i] = float32(e * inv)
			}
		}
		g[y] -= float32(inv)
	}
	return loss, grad
}

// Accuracy returns the fraction of mask vertices whose argmax prediction
// matches the label.
func Accuracy(logits *tensor.Matrix, labels []int32, mask []int32) float64 {
	if len(mask) == 0 {
		return 0
	}
	pred := make([]int, logits.Rows)
	logits.ArgmaxRows(pred)
	correct := 0
	for _, v := range mask {
		if int32(pred[v]) == labels[v] {
			correct++
		}
	}
	return float64(correct) / float64(len(mask))
}
