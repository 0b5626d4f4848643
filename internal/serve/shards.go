// POST /v1/shards: the internal worker protocol behind coordinator
// mode. A coordinator (a server configured with WorkerPeers) splits
// the cell list of a matrix — the missing cells of a /v1/matrix
// request, every cell of a /v1/sweeps table — into contiguous shards
// (scenario.PlanShards), posts each to a peer, and merges the partial
// results into the same envelope a single process would have
// produced. The merge is sound by construction: every cell's seed
// derives from its coordinate, so a shard computes bit-identical
// values wherever it runs — distribution changes who simulates, never
// what. A peer that fails mid-shard (crash, network, 5xx) is not
// retried remotely: the coordinator recomputes that shard locally,
// trading latency for the guarantee that one dead worker can never
// change or lose a result.
//
// Workers never re-fan-out: the shard handler always computes locally,
// so a misconfigured ring of coordinators degrades into local
// computation instead of recursing.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"tegrecon/internal/experiments"
	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
)

// ShardRequest is the POST /v1/shards body.
type ShardRequest struct {
	// Kind is "matrix", the only shard kind. It stays on the wire so a
	// peer on another build refuses a kind it does not know with a 400,
	// which the coordinator absorbs by computing the shard locally.
	Kind string `json:"kind"`
	// Matrix is the full normalized spec. The worker re-expands it —
	// expansion is deterministic, so coordinator and worker agree on
	// every cell index — and simulates only Cells.
	Matrix *scenario.Matrix `json:"matrix,omitempty"`
	// Cells are indices into the full expansion's stable cell order.
	Cells []int `json:"cells,omitempty"`
}

// shardMatrixResponse carries a matrix shard's cells back. Cell Index
// values are positions in the full expansion (Subset preserves them),
// which is all the coordinator needs to merge.
type shardMatrixResponse struct {
	Cells []experiments.MatrixCell `json:"cells"`
}

// --- worker side ---

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if herr := decodeJSON(w, r, &req); herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	if s.Draining() {
		s.writeJSONError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.met.shardsServed.Add(1)
	if req.Kind != "matrix" {
		s.writeJSONError(w, http.StatusBadRequest, "shard kind must be \"matrix\"")
		return
	}
	s.handleMatrixShard(w, r, req)
}

func (s *Server) handleMatrixShard(w http.ResponseWriter, r *http.Request, req ShardRequest) {
	if req.Matrix == nil || len(req.Cells) == 0 {
		s.writeJSONError(w, http.StatusBadRequest, "matrix shard needs a spec and a non-empty cell list")
		return
	}
	// The worker enforces its own admission bounds on the full spec —
	// a worker behind a bigger coordinator sheds the shard as a 400,
	// which the coordinator absorbs by computing locally.
	p, herr := s.normalizeMatrix(MatrixRequest{Matrix: *req.Matrix})
	if herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	key, err := matrixKey("matrix", p.m)
	if err != nil {
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ex, _, err := s.expandMatrix(p, key)
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	sub, err := ex.Subset(req.Cells)
	if err != nil {
		s.writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	keys := make([]string, len(sub.Cells))
	for i, c := range sub.Cells {
		keys[i] = cellKey(p, c)
	}
	// The shard runs under the coordinator's request context: if the
	// coordinator gives up (or this worker drains), the simulation
	// aborts at its next per-tick check.
	var cells []experiments.MatrixCell
	err = s.job(r.Context(), func(ctx context.Context) error {
		s.met.computations.Add(1)
		var err error
		cells, _, err = s.computeMatrix(ctx, sub, keys, nil, false)
		return err
	})
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(shardMatrixResponse{Cells: cells})
}

// --- coordinator side ---

// shardCellAllowance bounds one encoded MatrixCell's bytes beyond its
// strings: field names, numbers and punctuation (a cell with a long
// synth coordinate encodes to about 640 bytes, strings included).
const shardCellAllowance = 1 << 10

// shardResponseCap is the most bytes an honest peer can answer a shard
// with: the envelope plus, per expected cell, the fixed allowance and
// its strings at JSON's worst-case escape (6 bytes per \u00XX byte).
// The coordinator knows every cell it asked for, so the cap needs no
// knob.
func shardResponseCap(ex *scenario.Expansion, idxs []int) int64 {
	n := int64(shardCellAllowance)
	for _, i := range idxs {
		c := ex.Cells[i]
		n += shardCellAllowance + 6*int64(len(c.Coord)+len(c.Cycle)+len(c.Scheme)+len(c.Fault))
	}
	return n
}

// postShard posts one shard to a peer and returns the response body.
// Any transport error, non-200 status, truncated body, or body longer
// than limit counts as a failed shard — the caller recomputes locally.
// Peers are untrusted input: the limit keeps a confused one from
// making the coordinator buffer without end.
func (s *Server) postShard(ctx context.Context, peer string, shard ShardRequest, limit int64) ([]byte, error) {
	body, err := json.Marshal(shard)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	s.met.shardsDispatched.Add(1)
	resp, err := s.peers.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("peer %s: shard response exceeds %d bytes", peer, limit)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: %s: %s", peer, resp.Status, truncate(b, 200))
	}
	return b, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}

// distributeMatrixCells computes the missing cells (indices into
// ex.Cells) across the worker peers and returns them in missing order,
// every cell validated against the coordinate it was asked for. A
// failed shard — dead peer, bad response, index mismatch — is
// recomputed locally; only a local failure (shutdown, bad spec)
// surfaces as an error.
func (s *Server) distributeMatrixCells(ctx context.Context, ex *scenario.Expansion, missing []int) ([]experiments.MatrixCell, error) {
	peers := s.cfg.WorkerPeers
	shards := scenario.PlanShards(len(missing), len(peers))
	results := make([][]experiments.MatrixCell, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for si, rng := range shards {
		wg.Add(1)
		go func(si int, idxs []int) {
			defer wg.Done()
			peer := peers[si%len(peers)]
			cells, err := s.dispatchMatrixShard(ctx, peer, ex, idxs)
			if err != nil {
				s.met.shardRetries.Add(1)
				s.log.Warn("matrix shard failed, recomputing locally",
					"peer", peer, "cells", len(idxs), "error", err)
				cells, err = s.localMatrixShard(ctx, ex, idxs)
			}
			results[si], errs[si] = cells, err
		}(si, missing[rng[0]:rng[1]])
	}
	wg.Wait()
	out := make([]experiments.MatrixCell, 0, len(missing))
	for si := range shards {
		if errs[si] != nil {
			return nil, errs[si]
		}
		out = append(out, results[si]...)
	}
	return out, nil
}

// dispatchMatrixShard runs one cell-index shard on a peer and
// validates the response cell-by-cell: the peer expanded the same
// normalized spec, so indices and coordinates must line up exactly —
// anything else means a version-skewed or confused peer, and the shard
// is treated as failed rather than merged.
func (s *Server) dispatchMatrixShard(ctx context.Context, peer string, ex *scenario.Expansion, idxs []int) ([]experiments.MatrixCell, error) {
	b, err := s.postShard(ctx, peer, ShardRequest{Kind: "matrix", Matrix: ex.Matrix, Cells: idxs}, shardResponseCap(ex, idxs))
	if err != nil {
		return nil, err
	}
	var resp shardMatrixResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, fmt.Errorf("peer %s: decoding shard response: %w", peer, err)
	}
	if len(resp.Cells) != len(idxs) {
		return nil, fmt.Errorf("peer %s: %d cells for a %d-cell shard", peer, len(resp.Cells), len(idxs))
	}
	for k, c := range resp.Cells {
		want := ex.Cells[idxs[k]]
		if c.Index != want.Index || c.Coord != want.Coord {
			return nil, fmt.Errorf("peer %s: cell %d is %q (index %d), want %q (index %d)",
				peer, k, c.Coord, c.Index, want.Coord, want.Index)
		}
	}
	return resp.Cells, nil
}

// localMatrixShard runs cells on this process's batch pool: the local
// path of computeMatrix, and the retry of a failed shard — the same
// Subset the peer would have run.
func (s *Server) localMatrixShard(ctx context.Context, ex *scenario.Expansion, idxs []int) ([]experiments.MatrixCell, error) {
	sub, err := ex.Subset(idxs)
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunExpansion(ctx, sub, experiments.MatrixOptions{
		Workers: s.cfg.Workers,
		OnTick:  func(sim.Tick) { s.met.ticks.Add(1) },
	})
	if err != nil {
		return nil, err
	}
	return res.Cells, nil
}
