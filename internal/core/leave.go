package core

import (
	"fmt"

	"repro/internal/overlay"
)

// This file implements the graceful leave: RemoveNode hands a departing
// node's index fraction to the members that become responsible for it.
// The handoff is replica-aware: an entry is correctly placed on ANY member
// of its key's replica set, and it targets every responsible member that
// lacks a copy (entries are shipped through the repair snapshot codec, so
// each destination gets an independent deep copy).

// RemoveNode gracefully removes an overlay node from the engine: its
// index fraction is handed off to the members that become responsible
// (every replica-set member lacking a copy), and the node leaves the
// ring. Documents contributed by a peer hosted on the node remain
// indexed (the paper's model keeps document references in the global
// index; peer departure WITH document loss is the crash scenario
// FailNode simulates).
func (e *Engine) RemoveNode(node overlay.Member) error {
	srv, ok := e.stores[node.ID()]
	if !ok {
		return fmt.Errorf("core: node %x has no store", node.ID())
	}
	// The last member has nowhere to hand its entries: refuse before
	// leaving, so the ring stays intact and searchable.
	if e.net.Size() <= 1 {
		return fmt.Errorf("core: cannot remove the last node")
	}
	// Leave the ring first so ownership recomputes without the node —
	// gracefully: the handoff below fills every replica set the leave
	// reshapes, so it owes no repair...
	if !e.net.Leave(node.ID()) {
		return fmt.Errorf("core: node %x not in overlay", node.ID())
	}
	// ...then hand its entries to every new owner that lacks them (or
	// holds a staler copy).
	store := srv.store
	items, err := store.exportEntries(store.keyList())
	if err != nil {
		return err
	}
	for _, it := range items {
		for _, owner := range e.net.OwnersOf(it.Key, e.replicas()) {
			dst, ok := e.stores[owner.ID()]
			if !ok {
				return fmt.Errorf("core: owner of %q has no store", it.Key)
			}
			if dst == srv {
				continue
			}
			if _, err := dst.store.importEntry(it.Key, it.Blob); err != nil {
				return err
			}
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
	return nil
}
