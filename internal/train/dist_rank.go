package train

import "distgnn/internal/tensor"

func (r *rankCtx) optStep() { r.opt.Step(r.model.Params()) }

func (r *rankCtx) resetCounters() {
	r.gatherBytes, r.netBytes, r.netMsgs = 0, 0, 0
	r.exposedNet = 0
}

// installHooks wires the model's forward hook for the configured algorithm
// at the given epoch (cd-r/cd-rs need the epoch to select its bin).
func (r *rankCtx) installHooks(epoch int) {
	switch r.cfg.Algo {
	case Algo0C:
		r.model.FwdHook = nil
	case AlgoCD0:
		r.model.FwdHook = func(layer int, agg *tensor.Matrix) {
			r.exchangeSumBroadcast(agg, 0)
		}
	case AlgoCDR:
		bin := epoch % r.plan.bins
		r.model.FwdHook = func(layer int, agg *tensor.Matrix) {
			r.cdrForwardHook(layer, agg, bin)
		}
	case AlgoCDRS:
		bin := epoch % r.plan.bins
		if epoch >= r.cfg.Epochs {
			// Evaluation forward pass: stale buffers still apply, but
			// nothing new is posted on the fabric.
			r.model.FwdHook = func(layer int, agg *tensor.Matrix) {
				r.cdrForwardHook(layer, agg, bin)
			}
			return
		}
		e := epoch
		r.model.FwdHook = func(layer int, agg *tensor.Matrix) {
			r.cdrsForwardHook(layer, agg, bin, e)
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
		send[peer] = r.cfg.CommPrecision.RoundSlice(packRows(mat, rows))
		r.countSend(len(rows), d)
	}
	recv := r.world.AlltoAllV(r.id, send)
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
		send[peer] = r.cfg.CommPrecision.RoundSlice(packRows(mat, rows))
		r.countSend(len(rows), d)
	}
	recv = r.world.AlltoAllV(r.id, send)
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

// cdrForwardHook is the per-layer forward hook of the DRPA algorithm:
// capture this epoch's fresh local partials for the active bin, then apply
// the stale remote contributions received in earlier epochs. cd-rs shares
// both halves — its hook only adds the nonblocking posts in between.
func (r *rankCtx) cdrForwardHook(layer int, agg *tensor.Matrix, bin int) {
	r.captureBin(layer, agg, bin)
	r.applyStale(layer, agg)
}

// captureBin snapshots fresh local partials of rows this rank will send (as
// leaf) or fold into totals (as root) this epoch.
func (r *rankCtx) captureBin(layer int, agg *tensor.Matrix, bin int) {
	cap := r.captures[layer]
	for peer := 0; peer < r.world.N; peer++ {
		for _, row := range r.plan.leafSend[bin][peer] {
			copy(cap.Row(int(row)), agg.Row(int(row)))
		}
		for _, row := range r.plan.rootSend[bin][peer] {
			copy(cap.Row(int(row)), agg.Row(int(row)))
		}
	}
}

// applyStale folds in the remote contributions received in earlier epochs:
// roots add the stale sums of leaf partials, leaves overwrite with the
// stale totals where one has arrived.
func (r *rankCtx) applyStale(layer int, agg *tensor.Matrix) {
	agg.Add(r.remoteAdd[layer])
	stale := r.staleTot[layer]
	for v := 0; v < agg.Rows; v++ {
		if r.staleMask[v] {
			copy(agg.Row(v), stale.Row(v))
		}
	}
}

// delayedExchange runs at the end of each cd-r epoch: it ships this epoch's
// bin of leaf partials, processes the bundles whose delay has elapsed
// (root reduce + totals send-back), and applies totals whose delay has
// elapsed on the leaf side. The physical transfer happens now; the r-epoch
// staleness is enforced by the delivery queues.
func (r *rankCtx) delayedExchange(epoch int) {
	k := r.world.N
	bin := epoch % r.plan.bins

	// AlltoAll #1: leaf partials (concatenated across layers) → roots.
	send := make([][]float32, k)
	for peer := 0; peer < k; peer++ {
		rows := r.plan.leafSend[bin][peer]
		if len(rows) == 0 {
			continue
		}
		var buf []float32
		for l := range r.aggDims {
			buf = append(buf, packRows(r.captures[l], rows)...)
		}
		r.countConcatSend(len(rows))
		send[peer] = r.cfg.CommPrecision.RoundSlice(buf)
	}
	recv := r.world.AlltoAllV(r.id, send)
	for peer := 0; peer < k; peer++ {
		if len(recv[peer]) > 0 {
			r.pendingPartials[epoch+r.cfg.Delay] = append(r.pendingPartials[epoch+r.cfg.Delay],
				delivery{peer: peer, bin: bin, layer: allLayers, data: recv[peer]})
		}
	}

	// Root side: process partials whose delay elapsed; they were sent in
	// epoch-Delay for the same bin (Delay == bins ⇒ (epoch-Delay)%bins == bin).
	due := r.pendingPartials[epoch]
	delete(r.pendingPartials, epoch)
	// The new arrivals replace the previous stale sums for this bin's rows.
	for _, dl := range due {
		for l := range r.aggDims {
			zeroRows(r.remoteAdd[l], r.plan.rootRecv[dl.bin][dl.peer])
		}
	}
	for _, dl := range due {
		off := 0
		for l, d := range r.aggDims {
			rows := r.plan.rootRecv[dl.bin][dl.peer]
			n := len(rows) * d
			addRows(r.remoteAdd[l], rows, dl.data[off:off+n])
			r.gatherBytes += int64(n) * 4
			off += n
		}
	}

	// AlltoAll #2: totals (fresh root partial + stale leaf sums) → leaves.
	send = make([][]float32, k)
	processedBins := map[int]bool{}
	for _, dl := range due {
		processedBins[dl.bin] = true
	}
	for b := range processedBins {
		for peer := 0; peer < k; peer++ {
			rows := r.plan.rootSend[b][peer]
			if len(rows) == 0 {
				continue
			}
			var buf []float32
			for l, d := range r.aggDims {
				chunk := make([]float32, len(rows)*d)
				for i, row := range rows {
					dst := chunk[i*d : (i+1)*d]
					copy(dst, r.captures[l].Row(int(row)))
					remote := r.remoteAdd[l].Row(int(row))
					for j := range dst {
						dst[j] += remote[j]
					}
				}
				buf = append(buf, chunk...)
			}
			r.countConcatSend(len(rows))
			send[peer] = append(send[peer], r.cfg.CommPrecision.RoundSlice(buf)...)
		}
	}
	recv = r.world.AlltoAllV(r.id, send)
	for peer := 0; peer < k; peer++ {
		if len(recv[peer]) > 0 {
			r.pendingTotals[epoch+r.cfg.Delay] = append(r.pendingTotals[epoch+r.cfg.Delay],
				delivery{peer: peer, bin: bin, layer: allLayers, data: recv[peer]})
		}
	}

	// Leaf side: totals whose delay elapsed become the stale override.
	dueTot := r.pendingTotals[epoch]
	delete(r.pendingTotals, epoch)
	for _, dl := range dueTot {
		off := 0
		for l, d := range r.aggDims {
			rows := r.plan.leafRecv[dl.bin][dl.peer]
			n := len(rows) * d
			setRows(r.staleTot[l], rows, dl.data[off:off+n])
			r.gatherBytes += int64(n) * 4
			off += n
			for _, row := range rows {
				r.staleMask[row] = true
			}
		}
	}
}

func zeroRows(mat *tensor.Matrix, rows []int32) {
	for _, row := range rows {
		dst := mat.Row(int(row))
		for j := range dst {
			dst[j] = 0
		}
	}
}
