package train

// overlap.go implements the delayed partial-aggregate exchange of DRPA
// (§5.3, Alg. 4) on nonblocking Isend/Irecv, the one code path of both
// cd-r and cd-rs. Each bin's leaf partials are posted to their roots as
// soon as a layer's aggregation produces them — one message per (peer,
// layer), before the forward pass of the remaining layers — completions
// are drained at layer boundaries, and at the epoch end roots reduce the
// partials whose delay elapsed and post totals back to the leaves. The two
// algorithms differ only in how timing.go charges the traffic: cd-r pays
// the full α+bytes/β term of every message as if the exchange blocked,
// cd-rs only the remainder its compute failed to hide (§6.3). Their
// losses and parameters are therefore the same bits at every epoch.

import (
	"sort"

	"distgnn/internal/comm"
	"distgnn/internal/tensor"
)

// pendReq is a phase-A (leaf partial → root) receive in flight.
type pendReq struct {
	peer  int
	bin   int
	layer int
	req   *comm.Request
}

// totReq is a phase-B (root total → leaf) receive parked until its delay
// elapses; Delay epochs of compute hide the transfer entirely.
type totReq struct {
	peer int
	bin  int
	req  *comm.Request
}

// Message tags: phase-A partials are keyed by (epoch, layer) on the even
// namespace, phase-B totals by epoch on the odd one, so no two in-flight
// payloads between a rank pair ever share a key.
func tagPartial(epoch, numLayers, layer int) int { return (epoch*numLayers + layer) << 1 }
func tagTotal(epoch int) int                     { return epoch<<1 | 1 }

// waitSend retires a send request immediately: sends complete at post time
// (buffered semantics), so the Wait is free — its only job is surfacing a
// transport failure (a TCP write error, an oversized frame) at the sender
// with the real cause, instead of as a misleading receive timeout on the
// peer a minute later.
func (r *rankCtx) waitSend(req *comm.Request) {
	if _, err := req.Wait(); err != nil {
		panic(err)
	}
}

// postLayer is the first half of DRPA's forward hook: capture the bin's
// fresh partials, ship this layer's rows immediately so the transfer rides
// under the remaining layers' compute, and reel in already hidden
// arrivals.
func (r *rankCtx) postLayer(layer int, agg *tensor.Matrix, bin, epoch int) {
	// This layer's aggregation is compute the in-flight transfers hide
	// behind; advance the simulated clock before posting.
	r.cfg.Net.ChargeCompute(r.id,
		r.cfg.Compute.AggSeconds(int64(r.part.G.NumEdges)*int64(r.aggDims[layer])))

	r.captureBin(layer, agg, bin)

	numLayers := len(r.aggDims)
	tag := tagPartial(epoch, numLayers, layer)
	for peer := 0; peer < r.world.N; peer++ {
		if rows := r.plan.leafSend[bin][peer]; len(rows) > 0 {
			payload := packRows(r.captures[layer], rows)
			r.waitSend(r.world.IsendPacked(peer, tag, payload, r.cfg.CommPrecision))
			r.countSend(len(rows), r.aggDims[layer])
		}
		if len(r.plan.rootRecv[bin][peer]) > 0 {
			r.pendingAReqs = append(r.pendingAReqs, pendReq{
				peer: peer, bin: bin, layer: layer,
				req: r.world.Irecv(peer, tag),
			})
		}
	}

	// Layer boundary: drain transfers that completed under the compute
	// charged so far.
	r.drainPartials(epoch, false)
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

// drainPartials moves completed phase-A receives into the delay queue. At
// layer boundaries (final=false) it takes only transfers that are already
// hidden — present and simulated-complete, so the set drained is a function
// of simulated time, not goroutine scheduling. At the epoch end
// (final=true) it waits out the rest, accumulating the exposed remainder.
func (r *rankCtx) drainPartials(epoch int, final bool) {
	kept := r.pendingAReqs[:0]
	for _, pr := range r.pendingAReqs {
		if !final {
			hidden, err := pr.req.TestHidden()
			if err != nil {
				panic(err)
			}
			if !hidden {
				kept = append(kept, pr)
				continue
			}
		}
		data, err := pr.req.Wait()
		if err != nil {
			panic(err)
		}
		r.exposedNet += pr.req.Exposed()
		r.pendingPartials[epoch+r.cfg.Delay] = append(r.pendingPartials[epoch+r.cfg.Delay],
			delivery{peer: pr.peer, bin: pr.bin, layer: pr.layer, data: data})
	}
	r.pendingAReqs = kept
}

// overlappedExchange is DRPA's epoch-end step: finish draining this epoch's
// posts, reduce the partials whose delay elapsed, ship totals back to
// leaves nonblocking, and harvest totals that have ridden out their own
// delay.
func (r *rankCtx) overlappedExchange(epoch int) {
	// Backward aggregation and the dense layers extend the overlap window
	// before the final drain.
	r.cfg.Net.ChargeCompute(r.id,
		r.cfg.Compute.AggSeconds(r.aggWorkElems())+r.cfg.Compute.MLPSeconds(r.mlpWorkMACs()))
	r.drainPartials(epoch, true)

	k := r.world.N
	bin := epoch % r.plan.bins

	// Root side: reduce due partials. Arrival order is whatever the drains
	// produced; sorting by (peer, layer) fixes the reduction order, so the
	// float sums do not depend on how much compute hid the transfers.
	due := r.pendingPartials[epoch]
	delete(r.pendingPartials, epoch)
	sort.Slice(due, func(i, j int) bool {
		if due[i].peer != due[j].peer {
			return due[i].peer < due[j].peer
		}
		return due[i].layer < due[j].layer
	})
	for _, dl := range due {
		zeroRows(r.remoteAdd[dl.layer], r.plan.rootRecv[dl.bin][dl.peer])
	}
	for _, dl := range due {
		rows := r.plan.rootRecv[dl.bin][dl.peer]
		addRows(r.remoteAdd[dl.layer], rows, dl.data)
		r.gatherBytes += int64(len(rows)*r.aggDims[dl.layer]) * 4
	}

	// Phase B: totals (fresh root partial + stale leaf sums) back to the
	// leaves, every layer concatenated into one message per peer, posted
	// nonblocking.
	if len(due) > 0 {
		for peer := 0; peer < k; peer++ {
			rows := r.plan.rootSend[bin][peer]
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
			r.waitSend(r.world.IsendPacked(peer, tagTotal(epoch), buf, r.cfg.CommPrecision))
		}
	}

	// Leaf side: post receives for the totals roots just sent (roots have
	// due partials — hence send — exactly when epoch ≥ Delay), parked until
	// their own delay elapses.
	if epoch >= r.cfg.Delay {
		for peer := 0; peer < k; peer++ {
			if len(r.plan.leafRecv[bin][peer]) == 0 {
				continue
			}
			r.pendingTotReqs[epoch+r.cfg.Delay] = append(r.pendingTotReqs[epoch+r.cfg.Delay],
				totReq{peer: peer, bin: bin, req: r.world.Irecv(peer, tagTotal(epoch))})
		}
	}

	// Harvest totals whose delay elapsed: Delay epochs of compute have
	// advanced the clock far past their completion, so the wait is free.
	dueT := r.pendingTotReqs[epoch]
	delete(r.pendingTotReqs, epoch)
	sort.Slice(dueT, func(i, j int) bool { return dueT[i].peer < dueT[j].peer })
	for _, tr := range dueT {
		data, err := tr.req.Wait()
		if err != nil {
			panic(err)
		}
		r.exposedNet += tr.req.Exposed()
		off := 0
		for l, d := range r.aggDims {
			rows := r.plan.leafRecv[tr.bin][tr.peer]
			n := len(rows) * d
			setRows(r.staleTot[l], rows, data[off:off+n])
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
