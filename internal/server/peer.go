package server

import (
	"bytes"
	"net/http"

	"repro/internal/solcache"
	"repro/internal/solio"
)

// peer.go serves the cluster's cache-peering endpoints, registered only
// when the server runs with a cluster (Config.Cluster != nil):
//
//	GET /v1/peer/solution/{key}  the cached solution document, or 404
//	PUT /v1/peer/solution/{key}  accept an off-owner write-back
//
// Both speak raw solio documents keyed by the content address, so a
// peered hit is byte-identical to a local one. The endpoints trust the
// cluster's nodes but not their payloads: keys are shape-checked and
// write-back bodies fully decoded before they touch the cache, so one
// corrupted node cannot poison its peers.

// handlePeerGet serves a solution straight out of the local cache.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !solcache.ValidKey(key) {
		writeErr(w, http.StatusBadRequest, "malformed cache key %q", key)
		return
	}
	e, ok := s.cache.Get(key)
	if !ok {
		writeErr(w, http.StatusNotFound, "no cached solution for %s", key)
		return
	}
	s.metrics.peerServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache-Key", key)
	_, _ = w.Write(e.Doc)
}

// handlePeerPut accepts a write-back: a solution this node owns but a
// sibling had to synthesize because this node was unreachable.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !solcache.ValidKey(key) {
		writeErr(w, http.StatusBadRequest, "malformed cache key %q", key)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, 16<<20)); err != nil {
		writeErr(w, http.StatusBadRequest, "reading write-back: %v", err)
		return
	}
	// Decode before caching: a local hit serves the entry without
	// decoding it again, so the cache must only ever hold documents that
	// pass every validator, with the metadata their decode recovered.
	sol, err := solio.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "write-back does not decode: %v", err)
		return
	}
	s.cache.Put(key, buf.Bytes(), solcache.Meta{Metrics: sol.Metrics(), Degradations: sol.Degradations})
	s.metrics.peerStored.Add(1)
	w.WriteHeader(http.StatusNoContent)
}
