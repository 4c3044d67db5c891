package train

import "distgnn/internal/tensor"

func (r *rankCtx) optStep() { r.opt.Step(r.model.Params()) }

// resetCounters starts epoch's counters. cd-rs's un-hidden network time
// is not counted but read from the set-up's replay (timing.go).
func (r *rankCtx) resetCounters(epoch int) {
	r.gatherBytes, r.netBytes, r.netMsgs = 0, 0, 0
	r.exposedNet = 0
	if r.overlap != nil {
		r.exposedNet = r.overlap[epoch].exposedNet
	}
}

// installHooks wires the model's hooks for the configured algorithm at the
// given epoch (cd-r/cd-rs need the epoch to select its bin and tag its
// posts). cd-0 exchanges in both directions; the delayed algorithms
// exchange forward aggregates only.
func (r *rankCtx) installHooks(epoch int) {
	r.model.FwdHook, r.model.BwdHook = nil, nil
	switch r.cfg.Algo {
	case AlgoCD0:
		r.model.FwdHook = func(layer int, agg *tensor.Matrix) {
			r.exchangeSumBroadcast(agg, 0)
		}
		r.model.BwdHook = func(layer int, grad *tensor.Matrix) {
			r.exchangeSumBroadcast(grad, 0)
		}
	case AlgoCDR, AlgoCDRS:
		bin := epoch % r.plan.bins
		r.model.FwdHook = func(layer int, agg *tensor.Matrix) {
			// The evaluation pass after the last epoch posts nothing;
			// the stale buffers still apply.
			if epoch < r.cfg.Epochs {
				r.postLayer(layer, agg, bin, epoch)
			}
			r.applyStale(layer, agg)
		}
	}
}

// exchangeSumBroadcast runs the synchronous two-phase tree exchange on the
// given bin's rows of mat: leaves send partial rows to roots (AlltoAllV);
// roots reduce them in; roots send completed rows back; leaves overwrite.
// After it returns every clone of a bin split vertex holds the full sum.
func (r *rankCtx) exchangeSumBroadcast(mat *tensor.Matrix, bin int) {
	k := r.world.N
	d := mat.Cols

	// Phase A: leaf partials → roots.
	send := make([][]float32, k)
	for peer := 0; peer < k; peer++ {
		rows := r.plan.leafSend[bin][peer]
		send[peer] = r.cfg.CommPrecision.RoundSlice(packRows(nil, mat, rows))
		r.countSend(len(rows), d)
	}
	recv := r.world.AlltoAllV(send)
	for peer := 0; peer < k; peer++ {
		rows := r.plan.rootRecv[bin][peer]
		if len(rows) > 0 {
			addRows(mat, rows, recv[peer])
			r.gatherBytes += int64(len(rows)*d) * 4
		}
	}

	// Phase B: completed roots → leaves.
	send = make([][]float32, k)
	for peer := 0; peer < k; peer++ {
		rows := r.plan.rootSend[bin][peer]
		send[peer] = r.cfg.CommPrecision.RoundSlice(packRows(nil, mat, rows))
		r.countSend(len(rows), d)
	}
	recv = r.world.AlltoAllV(send)
	for peer := 0; peer < k; peer++ {
		rows := r.plan.leafRecv[bin][peer]
		if len(rows) > 0 {
			setRows(mat, rows, recv[peer])
			r.gatherBytes += int64(len(rows)*d) * 4
		}
	}
}

func (r *rankCtx) countSend(rows, d int) {
	if rows == 0 {
		return
	}
	// Gather staging stays float32; the wire format sets network volume.
	r.gatherBytes += int64(rows*d) * 4
	r.netBytes += int64(rows*d) * int64(r.cfg.CommPrecision.Bytes())
	r.netMsgs++
}

// countConcatSend counts one concatenated-across-layers buffer of the
// given row count: staging and wire volume for every layer, but a single
// message — the α latency term must match the one frame that actually
// crosses the fabric, not the number of layer blocks inside it.
func (r *rankCtx) countConcatSend(rows int) {
	if rows == 0 {
		return
	}
	for _, d := range r.aggDims {
		r.gatherBytes += int64(rows*d) * 4
		r.netBytes += int64(rows*d) * int64(r.cfg.CommPrecision.Bytes())
	}
	r.netMsgs++
}
