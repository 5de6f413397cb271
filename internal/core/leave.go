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

// placeEntry installs a store's entry snapshot on every given replica-set
// member that lacks it (or holds a staler, lower-df copy).
func (e *Engine) placeEntry(src *hdkStore, key string, owners []overlay.Member) error {
	blob, ok := src.exportEntry(key)
	if !ok {
		return fmt.Errorf("core: entry %q vanished during placement", key)
	}
	for _, owner := range owners {
		dst, ok := e.stores[owner.ID()]
		if !ok {
			return fmt.Errorf("core: owner of %q has no store", key)
		}
		if dst == src {
			continue
		}
		if _, err := dst.importEntry(key, blob); err != nil {
			return err
		}
	}
	return nil
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
	// Leave the ring first so ownership recomputes without the node —
	// gracefully: the handoff below fills every replica set the leave
	// reshapes, so it owes no repair...
	if !e.net.Leave(node.ID()) {
		return fmt.Errorf("core: node %x not in overlay", node.ID())
	}
	if e.net.Size() == 0 {
		return fmt.Errorf("core: cannot remove the last node")
	}
	// ...then hand its entries to the new owners.
	for _, key := range store.keyList() {
		owners := e.net.OwnersOf(key, e.replicas())
		if len(owners) == 0 {
			return fmt.Errorf("core: cannot remove the last node")
		}
		if err := e.placeEntry(store, key, owners); err != nil {
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
	return nil
}
