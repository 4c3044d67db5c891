package train

// overlap.go implements the delayed partial-aggregate exchange of DRPA
// (§5.3, Alg. 4) on nonblocking Isend/Irecv, the one code path of both
// cd-r and cd-rs. Each bin's leaf partials are posted to their roots as
// soon as a layer's aggregation produces them — one message per (peer,
// layer), before the forward pass of the remaining layers — and at the
// epoch end each rank waits them out, roots reduce the partials whose
// delay elapsed and post totals back to the leaves. The two algorithms
// differ only in how timing.go charges the traffic: cd-r pays the full
// α+bytes/β term of every message as if the exchange blocked, cd-rs only
// the remainder its compute failed to hide (§6.3), which timing.go's
// replay decides. Their losses and parameters are therefore the same bits
// at every epoch.

import (
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
// fresh partials and ship this layer's rows immediately, so the transfer
// rides under the remaining layers' compute.
func (r *rankCtx) postLayer(layer int, agg *tensor.Matrix, bin, epoch int) {
	r.captureBin(layer, agg, bin)

	numLayers := len(r.aggDims)
	tag := tagPartial(epoch, numLayers, layer)
	for peer := 0; peer < r.world.N; peer++ {
		if rows := r.plan.leafSend[bin][peer]; len(rows) > 0 {
			r.packBuf = packRows(r.packBuf, r.captures[layer], rows)
			r.waitSend(r.world.IsendPacked(peer, tag, r.packBuf, r.cfg.CommPrecision))
			r.countSend(len(rows), r.aggDims[layer])
		}
		if len(r.plan.rootRecv[bin][peer]) > 0 {
			r.pendingAReqs = append(r.pendingAReqs, pendReq{
				peer: peer, bin: bin, layer: layer,
				req: r.world.Irecv(peer, tag),
			})
		}
	}
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
// stale totals where one has arrived. Only root rows of remoteAdd are ever
// written, so only they are added: every other row is +0, and agg — the
// aggregation's sums from +0 — holds no −0 for a +0 to change.
func (r *rankCtx) applyStale(layer int, agg *tensor.Matrix) {
	remote := r.remoteAdd[layer]
	for _, row := range r.plan.rootRows {
		tensor.Accumulate(agg.Row(int(row)), remote.Row(int(row)))
	}
	stale := r.staleTot[layer]
	for v := 0; v < agg.Rows; v++ {
		if r.staleMask[v] {
			copy(agg.Row(v), stale.Row(v))
		}
	}
}

// overlappedExchange is DRPA's epoch-end step: wait out this epoch's
// posts, reduce the partials whose delay elapsed, ship totals back to
// leaves nonblocking, and harvest totals that have ridden out their own
// delay.
func (r *rankCtx) overlappedExchange(epoch int) {
	// This epoch's partials join the delay queue.
	for _, pr := range r.pendingAReqs {
		data, err := pr.req.Wait()
		if err != nil {
			panic(err)
		}
		r.pendingPartials[epoch+r.cfg.Delay] = append(r.pendingPartials[epoch+r.cfg.Delay],
			delivery{peer: pr.peer, bin: pr.bin, layer: pr.layer, data: data})
	}
	r.pendingAReqs = r.pendingAReqs[:0]

	k := r.world.N
	bin := epoch % r.plan.bins

	// Root side: reduce due partials. They were queued in post order,
	// layer-major then peer-ascending, so each layer's sums run in peer
	// order.
	due := r.pendingPartials[epoch]
	delete(r.pendingPartials, epoch)
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
			buf := r.packBuf[:0]
			for l := range r.aggDims {
				for _, row := range rows {
					off := len(buf)
					buf = append(buf, r.captures[l].Row(int(row))...)
					tensor.Accumulate(buf[off:], r.remoteAdd[l].Row(int(row)))
				}
			}
			r.packBuf = buf
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

	// Harvest totals whose delay elapsed, in peer order.
	dueT := r.pendingTotReqs[epoch]
	delete(r.pendingTotReqs, epoch)
	for _, tr := range dueT {
		data, err := tr.req.Wait()
		if err != nil {
			panic(err)
		}
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
