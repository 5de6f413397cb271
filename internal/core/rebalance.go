package core

import (
	"fmt"
	"sort"

	"repro/internal/overlay"
	"repro/internal/replica"
)

// This file implements index maintenance under overlay membership
// changes. The paper's experiments grow the network in batches of four
// peers; a real deployment additionally needs the global index to follow
// the key→owner mapping as nodes join and leave. Rebalance moves
// misplaced entries to their current owners; RemoveNode performs a
// graceful leave with handoff. Both are replica-aware: an entry is
// correctly placed on ANY member of its key's replica set, and handoff
// targets every responsible member that lacks a copy (entries are
// shipped through the repair snapshot codec, so each destination gets an
// independent deep copy).

// placeEntry installs a store's entry snapshot on every given replica-set
// member that lacks it (or holds a staler, lower-df copy), returning how
// many copies landed.
func (e *Engine) placeEntry(src *hdkStore, key string, owners []overlay.Member) (int, error) {
	blob, ok := src.exportEntry(key)
	if !ok {
		return 0, fmt.Errorf("core: entry %q vanished during placement", key)
	}
	placed := 0
	for _, owner := range owners {
		dst, ok := e.stores[owner.ID()]
		if !ok {
			return placed, fmt.Errorf("core: owner of %q has no store", key)
		}
		if dst == src {
			continue
		}
		installed, err := dst.importEntry(key, blob)
		if err != nil {
			return placed, err
		}
		if installed {
			placed++
		}
	}
	return placed, nil
}

// inReplicaSet reports whether the node is among the given owners.
func inReplicaSet(id overlay.ID, owners []overlay.Member) bool {
	for _, owner := range owners {
		if owner.ID() == id {
			return true
		}
	}
	return false
}

// Rebalance scans every store and moves entries whose node is no longer
// in the key's replica set (after joins) to the responsible members that
// lack them. It returns the number of entries moved. Ongoing queries
// remain correct throughout: entries are inserted at the destinations
// before being deleted at the source. Replicas residing on members that
// are still responsible are left in place; restoring copies that are
// missing elsewhere is RepairReplicas' job.
func (e *Engine) Rebalance() (int, error) {
	moved := 0
	// Deterministic iteration over stores.
	ids := make([]overlay.ID, 0, len(e.stores))
	for id := range e.stores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		store := e.stores[id]
		for _, key := range store.keyList() {
			owners := replica.Owners(e.net, key, e.replicas())
			if len(owners) == 0 {
				return moved, fmt.Errorf("core: empty overlay during rebalance")
			}
			if inReplicaSet(id, owners) {
				continue
			}
			if _, err := e.placeEntry(store, key, owners); err != nil {
				return moved, err
			}
			store.mu.Lock()
			delete(store.entries, key)
			store.mu.Unlock()
			moved++
		}
	}
	e.InvalidateQueryCache()
	return moved, nil
}

// RemoveNode gracefully removes an overlay node from the engine: its
// index fraction is handed off to the members that become responsible
// (every replica-set member lacking a copy), and the node leaves the
// ring. Documents contributed by a peer hosted on the node remain
// indexed (the paper's model keeps document references in the global
// index; peer departure WITH document loss is the crash scenario
// FailNode simulates).
func (e *Engine) RemoveNode(node overlay.Member) error {
	store, ok := e.stores[node.ID()]
	if !ok {
		return fmt.Errorf("core: node %x has no store", node.ID())
	}
	// Leave the ring first so ownership recomputes without the node...
	churn, ok := e.net.(overlay.Churn)
	if !ok {
		return fmt.Errorf("core: fabric does not support node removal")
	}
	owed := churn.Unrepaired() // an earlier crash this leave must not paper over
	if !churn.RemoveNode(node.ID()) {
		return fmt.Errorf("core: node %x not in overlay", node.ID())
	}
	if e.net.Size() == 0 {
		return fmt.Errorf("core: cannot remove the last node")
	}
	// ...then hand its entries to the new owners.
	for _, key := range store.keyList() {
		owners := replica.Owners(e.net, key, e.replicas())
		if len(owners) == 0 {
			return fmt.Errorf("core: cannot remove the last node")
		}
		if _, err := e.placeEntry(store, key, owners); err != nil {
			return err
		}
	}
	delete(e.stores, node.ID())
	// Drop departed peers hosted on this node from the build set.
	kept := e.peers[:0]
	for _, p := range e.peers {
		if p.node.ID() != node.ID() {
			kept = append(kept, p)
		}
	}
	e.peers = kept
	e.InvalidateQueryCache()
	if owed {
		return nil
	}
	// The handoff above filled every replica set the leave reshaped, so
	// this departure leaves no repair debt behind.
	return churn.MarkRepaired()
}
