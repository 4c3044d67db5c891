// Package featstore is the shared feature-sourcing plane: it answers "give
// me the raw input-feature rows for this frontier of global vertex IDs" for
// every subsystem that consumes vertex features — the serving engines
// (internal/serve) and the sampled mini-batch trainers (internal/minibatch)
// read features through the same three building blocks:
//
//   - a resident matrix (Local): the in-process fp32 feature store,
//     optionally fronted by a byte-budgeted LRU;
//   - an owner-split sharded store (Sharded): each rank materializes only
//     the feature rows of the vertices it owns, frontier positions owned by
//     peers become one batched halo fetch per owner rank over the
//     comm.ReqRep request/reply plane, and fetched rows may land in a
//     per-rank LRU (Cache) — sharded serving budgets one, sampled training
//     runs without, since over the in-process fabric a fetch is a copy;
//   - the Cache itself, the concurrency-safe byte-budgeted LRU promoted
//     from internal/cachesim, shared by both sources and reused by serve
//     for its embedding cache.
//
// The package exists so distributed training and distributed serving are
// the same code path (the ROADMAP's "billion-edge-scale training and
// serving" refactor): the sharded serving engine and the sharded sampled
// trainer differ only in what they do with the gathered rows. The contract
// every gather honors is exactness — it returns the same fp32 bits the
// resident matrix holds, regardless of which rank the row lives on,
// whether it was cached, or how the frontier was batched. That contract is
// what lets the cross-shard serving conformance harness and the
// distributed-minibatch conformance harness pin bit-identical results
// across 1/2/4 ranks and both comm fabrics.
package featstore
