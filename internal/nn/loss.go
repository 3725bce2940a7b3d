package nn

import (
	"math"

	"edgetta/internal/tensor"
)

// Softmax converts logits [N, C] to row-wise probabilities with the usual
// max-subtraction for numerical stability.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	n, c := logits.Dim(0), logits.Dim(1)
	p := tensor.New(n, c)
	for r := 0; r < n; r++ {
		row := logits.Data[r*c : (r+1)*c]
		out := p.Data[r*c : (r+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := float64(0)
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			out[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range out {
			out[j] *= inv
		}
	}
	return p
}

// CrossEntropy returns the mean negative log-likelihood of labels under
// softmax(logits), and the gradient w.r.t. the logits.
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic("nn: CrossEntropy: label count does not match batch")
	}
	p := Softmax(logits)
	loss := 0.0
	grad := tensor.New(n, c)
	invN := float32(1 / float64(n))
	for r := 0; r < n; r++ {
		row := p.Data[r*c : (r+1)*c]
		loss -= math.Log(math.Max(float64(row[labels[r]]), 1e-12))
		g := grad.Data[r*c : (r+1)*c]
		for j, pv := range row {
			g[j] = pv * invN
		}
		g[labels[r]] -= invN
	}
	return loss / float64(n), grad
}

// MeanEntropy returns the mean Shannon entropy of the softmax predictions
// H(ŷ) = −Σ_c p_c log p_c — the unsupervised loss BN-Opt (TENT) minimizes —
// and its gradient w.r.t. the logits:
//
//	∂H_r/∂z_{r,j} = −p_j (log p_j + H_r)
func MeanEntropy(logits *tensor.Tensor) (float64, *tensor.Tensor) {
	n, c := logits.Dim(0), logits.Dim(1)
	p := Softmax(logits)
	grad := tensor.New(n, c)
	total := 0.0
	invN := float32(1 / float64(n))
	for r := 0; r < n; r++ {
		row := p.Data[r*c : (r+1)*c]
		h := 0.0
		logp := make([]float64, c)
		for j, pv := range row {
			lp := math.Log(math.Max(float64(pv), 1e-12))
			logp[j] = lp
			h -= float64(pv) * lp
		}
		total += h
		g := grad.Data[r*c : (r+1)*c]
		for j, pv := range row {
			g[j] = -pv * float32(logp[j]+h) * invN
		}
	}
	return total / float64(n), grad
}
