package main

import (
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// setupTimes is one boot + ingest + build, timed from outside: the phase
// boundaries are the return of each client call and the round transitions
// the BuildRemote progress poll sees.
type setupTimes struct {
	total   time.Duration   // fleet.start entered → build_state done
	boot    time.Duration   // daemons started → every one reports the full membership
	ingest  []time.Duration // per daemon, in ring order
	build   time.Duration   // BuildRemote called → build_state done
	roundAt []time.Duration // roundAt[s-1]: offset into build at which the poll first saw round s (100 ms grain)
}

func (st setupTimes) ingestTotal() time.Duration {
	var sum time.Duration
	for _, d := range st.ingest {
		sum += d
	}
	return sum
}

// spans renders the set-up as phase spans: boot, ingest[node], the build
// rounds as the progress poll saw them, with the last one running into
// the finishing work the poll cannot tell from it.
func (st setupTimes) spans() []span {
	out := []span{{Req: -1, ID: 0, Parent: -1, Name: "setup", Dur: st.total},
		{Req: -1, ID: 1, Parent: 0, Name: "boot", Dur: st.boot}}
	at := st.boot
	for i, d := range st.ingest {
		out = append(out, span{Req: -1, ID: len(out), Parent: 0, Name: fmt.Sprintf("ingest[%d]", i), Start: at, Dur: d})
		at += d
	}
	buildStart := st.total - st.build
	for i, off := range st.roundAt {
		end := st.build
		name := fmt.Sprintf("build.round[%d]+finish", i+1)
		if i+1 < len(st.roundAt) {
			end, name = st.roundAt[i+1], fmt.Sprintf("build.round[%d]", i+1)
		}
		out = append(out, span{Req: -1, ID: len(out), Parent: 0, Name: name, Start: buildStart + off, Dur: end - off})
	}
	return out
}

// setUp boots the workload's fleet and builds the index through the
// thin-client path: one Ingest per daemon (document j to ring member j%n),
// then a daemon-coordinated BuildRemote. The returned client is the
// control connection; the load generator dials its own.
func setUp(f *fleet, w workload, in *inputs) (*cluster.Client, *transport.TCP, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	extra := []string{"-search-cache", fmt.Sprint(w.cache)}
	if err := f.start(w.durable, extra...); err != nil {
		return nil, nil, st, err
	}
	st.boot = time.Since(t0)
	tr := transport.NewTCP()
	c, err := cluster.Dial(cluster.Options{Transport: tr, Addrs: f.addrs()})
	if err != nil {
		tr.Close()
		return nil, nil, st, err
	}
	fail := func(err error) (*cluster.Client, *transport.TCP, setupTimes, error) {
		tr.Close()
		return nil, nil, st, err
	}

	members := c.Members()
	freqs := in.col.TermFrequencies()
	for i, m := range members {
		j, tIngest := i, time.Now()
		is, err := c.Ingest(m.Addr(), cluster.IngestSource{
			Session: 1, Config: in.cfg, Vocab: in.col.Vocab, TermFreqs: freqs,
			TotalDocs: in.col.M(), ShardDocs: (in.col.M() - i + len(members) - 1) / len(members),
			Docs: func() (corpus.Document, bool) {
				if j >= len(in.col.Docs) {
					return corpus.Document{}, false
				}
				d := in.col.Docs[j]
				j += len(members)
				return d, true
			},
		})
		if err != nil {
			return fail(fmt.Errorf("ingest shard %d: %w", i, err))
		}
		if is.ChunksSent != is.Chunks {
			return fail(fmt.Errorf("ingest shard %d: %d of %d chunks shipped on a fresh session", i, is.ChunksSent, is.Chunks))
		}
		st.ingest = append(st.ingest, time.Since(tIngest))
	}

	tBuild := time.Now()
	err = c.BuildRemote(members[0].Addr(), func(info cluster.Info) {
		for len(st.roundAt) < info.BuildRound {
			st.roundAt = append(st.roundAt, time.Since(tBuild))
		}
	})
	if err != nil {
		return fail(err)
	}
	now := time.Now()
	st.build = now.Sub(tBuild)
	st.total = now.Sub(t0)
	return c, tr, st, nil
}
