package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ammboost/internal/amm"
	"ammboost/internal/chain"
	"ammboost/internal/engine"
	"ammboost/internal/gasmodel"
	"ammboost/internal/mainchain"
	"ammboost/internal/netsim"
	"ammboost/internal/sidechain"
	"ammboost/internal/sidechain/pbft"
	"ammboost/internal/store"
	"ammboost/internal/summary"
	"ammboost/internal/trace"
	"ammboost/internal/u256"
	"ammboost/internal/workload"
)

// worldSeeds is TestWorld's fixed budget: tier-1 and CI's race step run
// the same list.
var worldSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40}

// worldUsers is the number of traders; every world adds "whale".
const worldUsers = 20

// worldMultiPartSeeds is how many of worldSeeds' worlds must sync an
// epoch in more than one part.
const worldMultiPartSeeds = 10

// worldGasStream seeds the block gas limit's stream, and
// worldSmallGasLimit is the small limit it draws.
const (
	worldGasStream     = 0x6a5_1157
	worldSmallGasLimit = 3_500_000
)

// worldMassSyncStream seeds the stream the skipped Sync is drawn from,
// and worldMassSyncSeeds is how many of worldSeeds' worlds must recover
// one by mass-sync.
const (
	worldMassSyncStream = 0x3a55_5c
	worldMassSyncSeeds  = 4
)

// TestWorld checks the node's determinism property on one generated
// deployment per seed (World): every run passes Validate or halts with a
// fault plan's lifecycle sentinel, every hostile submission meets its
// typed error, every meta-block's TxRoot is sidechain.TxRoot over its
// transactions, and the run's fingerprint and meta-block roots equal
// those of a same-seed re-run (receipt timestamps too), of a reduced twin
// replaying its arrival log, and of a node killed at a generated epoch
// boundary and reopened. Across the full seed list, at least
// worldMultiPartSeeds worlds sync an epoch in more than one part, and at
// least worldMassSyncSeeds recover a skipped Sync.
func TestWorld(t *testing.T) {
	var ran, multiPart, massSync atomic.Int32
	t.Cleanup(func() {
		if int(ran.Load()) != len(worldSeeds) {
			return
		}
		if n := multiPart.Load(); n < worldMultiPartSeeds {
			t.Errorf("%d of %d worlds synced an epoch in several parts, want >= %d", n, len(worldSeeds), worldMultiPartSeeds)
		}
		if n := massSync.Load(); n < worldMassSyncSeeds {
			t.Errorf("%d of %d worlds mass-synced, want >= %d", n, len(worldSeeds), worldMassSyncSeeds)
		}
	})
	for _, seed := range worldSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			main := World(seed).checkLogged(t).main
			if main.multiPart > 0 {
				multiPart.Add(1)
			}
			if main.rep.MassSyncs > 0 {
				massSync.Add(1)
			}
			ran.Add(1)
		})
	}
}

// checkLogged is check, logging the world and how to replay its subtest
// alone when it fails.
func (w world) checkLogged(t *testing.T) worldRuns {
	defer func() {
		if t.Failed() {
			t.Logf("world %+v\nhalt %v, faults %+v, uplink %+v, net %+v\nreplay alone: go test -run '%s' ./internal/core",
				w, w.halt, w.cfg.Faults, w.cfg.SyncFaults, w.cfg.NetFaults, t.Name())
		}
	}()
	return w.check(t)
}

// Traffic a world carries. Epoch traffic is a function of (seed, epoch)
// submitted as each epoch starts, so a node reopened at any boundary
// regenerates what the uninterrupted run submitted; timed traffic
// arrives at fixed virtual times through every round; producer traffic
// races the run from goroutines, and only its arrival log replays.
const (
	epochTraffic    = "epoch"
	timedTraffic    = "timed"
	producerTraffic = "producers"
)

// world is one generated deployment.
type world struct {
	seed      int64
	cfg       chain.Config
	epochs    int
	traffic   string
	producers int  // goroutines, when traffic is producers
	sparse    bool // a few pools per epoch (epoch traffic: some epochs none); else Zipf over every pool
	perEpoch  int
	store     bool
	whale     uint64   // epoch of the near-2^256 deposits (0 = none)
	kills     []uint64 // epochs whose prune snapshots the store for a kill leg
	halt      error    // sentinel the fault plan halts the run with (nil: it may still stall live consensus)
}

// World derives a deployment from seed alone.
func World(seed int64) world {
	rng := rand.New(rand.NewSource(seed))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	w := world{
		seed: seed, epochs: 2 + rng.Intn(3), traffic: []string{epochTraffic, timedTraffic, producerTraffic}[seed%3],
		sparse: rng.Intn(2) == 0, perEpoch: pick(10, 40, 150, 400), store: rng.Intn(3) > 0,
		producers: 2 + rng.Intn(3),
	}
	users := append([]string{"whale"}, workload.New(workload.Config{NumUsers: worldUsers}).Users()...)
	w.cfg = chain.Config{
		Seed: seed, NumPools: pick(1, 2, 3, 8, 16, 33, 64), NumShards: pick(1, 2, 4, 16),
		PipelineDepth: 1 + rng.Intn(3), EpochRounds: pick(3, 5), RoundDuration: 7 * time.Second,
		CommitteeSize: pick(4, 10, 50, 100), Users: users,
	}
	w.cfg.CompactEvery = pick(0, 0, 1, 2) // read only with a store
	if rng.Intn(3) == 0 {
		w.cfg.ConsensusFidelity = chain.FidelityLive
	} else if rng.Intn(3) == 0 {
		// Rounds shorter than a 100-member committee's agreement: a summary
		// checkpoint outlasts the round grid the next epoch starts on.
		w.cfg.RoundDuration, w.cfg.CommitteeSize = 500*time.Millisecond, 100
	}
	if rng.Intn(2) == 0 {
		w.whale = 1 + uint64(rng.Intn(w.epochs))
	}
	if rng.Intn(2) == 0 {
		w.cfg.Tracer = trace.New(4) // shared by the world's runs; it only reads the wall clock
	}
	w.faults(rng)
	// The block gas limit comes from a stream of its own, so drawing it
	// moves no other dimension. The small limit splits busy epochs into
	// several sync parts, yet a block holds the largest single pool's
	// payload any seed draws (2.84M gas declared, seed 26) with a fifth
	// to spare for producer traffic's run-to-run spread.
	if gas := rand.New(rand.NewSource(seed ^ worldGasStream)); gas.Intn(4) > 0 {
		w.cfg.Mainchain = mainchain.DefaultConfig()
		w.cfg.Mainchain.GasLimit = worldSmallGasLimit
	}
	// A storeless world may skip one Sync before its final planned epoch,
	// drawn from a stream of its own; the node holds the epoch's signed
	// parts and sends them before the next epoch's (a node with a store
	// refuses the fault).
	if ms := rand.New(rand.NewSource(seed ^ worldMassSyncStream)); !w.store && ms.Intn(2) == 0 {
		w.cfg.Faults.SkipSyncEpochs = map[uint64]bool{1 + uint64(ms.Intn(w.epochs-1)): true}
	}
	if w.killable() {
		w.kills = []uint64{1 + uint64(rng.Intn(w.epochs-1))}
	}
	return w
}

// killable reports whether a node of the world reopened at a boundary
// can regenerate the rest of the uninterrupted run: its traffic is a
// function of (seed, epoch) and it has a store.
func (w world) killable() bool {
	return w.traffic == epochTraffic && w.store
}

// faults draws the world's fault plan from what newMultiSystem accepts,
// at most one of it halting.
func (w *world) faults(rng *rand.Rand) {
	f := &w.cfg.Faults
	live := w.cfg.ConsensusFidelity == chain.FidelityLive
	epoch := func() uint64 { return 1 + uint64(rng.Intn(w.epochs)) }
	slot := func() [2]uint64 { return [2]uint64{epoch(), 1 + uint64(rng.Intn(w.cfg.EpochRounds))} }
	split := func(heal time.Duration) []netsim.PartitionWindow {
		return []netsim.PartitionWindow{{At: 9 * time.Second, Heal: heal,
			SideA: []string{"rep-0", "rep-1"}, SideB: []string{"rep-2", "rep-3", "rep-4"}}}
	}
	storms := make(map[[2]uint64]int)
	if rng.Intn(3) == 0 {
		storms[slot()] = 1 // a silent leader
	}
	if rng.Intn(3) == 0 {
		storms[slot()] += 1 + rng.Intn(2) // at a silent leader's slot the lengths add
	}
	if len(storms) > 0 {
		f.ViewChangeStormRounds = storms
	}
	if rng.Intn(3) == 0 {
		w.cfg.SyncFaults = &netsim.FaultSchedule{Seed: rng.Int63(), DropProb: 0.3, DupProb: 0.1}
	}
	if live && rng.Intn(2) == 0 {
		w.cfg.NetFaults = &netsim.FaultSchedule{Seed: rng.Int63(), DropProb: 0.03, DupProb: 0.05,
			ReorderProb: 0.2, ReorderDelay: 8 * time.Millisecond}
		if rng.Intn(2) == 0 {
			w.cfg.NetFaults.Partitions = split(22 * time.Second)
		}
		f.ByzantineReplicas = map[int]pbft.Byzantine{rng.Intn(5): pbft.Byzantine(1 + rng.Intn(5))}
	}
	switch rng.Intn(10) {
	case 0:
		f.CorruptSyncEpochs = map[uint64]bool{epoch(): true}
		w.halt = chain.ErrSyncReverted
	case 1:
		w.cfg.SyncFaults = &netsim.FaultSchedule{Seed: rng.Int63(), DropProb: 1}
		w.halt = chain.ErrSyncUnreachable
	case 2:
		if live {
			w.cfg.NetFaults = &netsim.FaultSchedule{Partitions: split(0)} // never heals
			f.ByzantineReplicas = nil
			w.cfg.LiveRoundTimeout = 30 * time.Second
			w.halt = chain.ErrConsensusStalled
		}
	}
	if w.halt != nil {
		// How far a halting run gets before the fault surfaces depends on
		// the window; depth 1 is what the twin runs.
		w.cfg.PipelineDepth = 1
	}
}

// twin is the reduced config: one shard, depth 1, no store, no tracer.
// Where the world completes, what only moves time goes too: a lossy
// uplink, and live consensus when the model path accepts the faults.
func (w world) twin() chain.Config {
	c := w.cfg
	c.NumShards, c.PipelineDepth, c.CompactEvery, c.Tracer = 1, 1, 0, nil
	if w.halt == nil {
		c.SyncFaults = nil
		if c.NetFaults == nil && len(c.Faults.ByzantineReplicas) == 0 {
			c.ConsensusFidelity = chain.FidelityModel
		}
	}
	return c
}

// worldRuns are the runs check compared; resumed are the kill legs'.
type worldRuns struct {
	main, rerun, twin worldRun
	resumed           []worldRun
}

// check runs the world, its re-run, its twin and its kill legs.
func (w world) check(t *testing.T) worldRuns {
	disk := func() *store.MemFS { return map[bool]*store.MemFS{true: {}}[w.store] } // nil without a store
	main := w.run(t, w.cfg, nil, disk())
	var replay *chain.ArrivalLog
	if w.traffic == producerTraffic {
		replay = main.log // producer interleaving is not a function of the seed
	}
	runs := worldRuns{main: main, rerun: w.run(t, w.cfg, replay, disk()), twin: w.run(t, w.twin(), main.log, nil)}
	sameRun(t, "re-run", main, runs.rerun, true)
	sameRun(t, "twin", main, runs.twin, false)
	for _, k := range w.kills {
		image := main.images[k]
		if image == nil {
			if main.err == nil {
				t.Fatalf("epoch %d never pruned: no store image to kill at", k)
			}
			continue // the run halted first
		}
		// The image is what kill -9 after the epoch's prune leaves on disk;
		// a compacting node's also serves as a peer's fast-sync snapshot.
		runs.resumed = append(runs.resumed, w.killLeg(t, main, k, image, false))
		if w.cfg.CompactEvery > 0 {
			runs.resumed = append(runs.resumed, w.killLeg(t, main, k, image, true))
		}
	}
	return runs
}

// killLeg reopens a node on image (or bootstraps a fresh one from it),
// resumes it, compares the resumed run with main and returns it.
func (w world) killLeg(t *testing.T, main worldRun, kill uint64, image []byte, bootstrap bool) worldRun {
	t.Helper()
	killed := &store.MemFS{}
	how := "reopened"
	if !bootstrap {
		writeMemStore(t, killed, image)
	} else if node, err := BootstrapFS(killed, "", image, w.cfg); err != nil {
		t.Fatalf("kill@%d: bootstrap: %v", kill, err)
	} else {
		node.Close()
		how = "bootstrapped"
	}
	res := w.run(t, w.cfg, nil, killed)
	label := fmt.Sprintf("kill@%d (%s at %d)", kill, how, res.recovered.Epoch)
	if res.recovered.Epoch < kill {
		t.Errorf("%s: want a boundary >= %d", label, kill)
	}
	if err := (chain.Fingerprint{Epochs: main.fp.Epochs}).Diff(chain.Fingerprint{Epochs: res.fp.Epochs}); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if fmt.Sprint(res.err) != fmt.Sprint(main.err) || res.rep.SyncsOK != main.rep.SyncsOK {
		t.Errorf("%s: err %v, %d syncs; want %v, %d", label, res.err, res.rep.SyncsOK, main.err, main.rep.SyncsOK)
	}
	for at, root := range res.txRoots {
		if want := main.txRoots[at]; want != root {
			t.Errorf("%s: meta-block %v TxRoot %x, want %x", label, at, root, want)
		}
	}
	return res
}

// worldRun is what one run of a world produced.
type worldRun struct {
	rep       *chain.Report
	err       error
	fp        chain.Fingerprint // receipts in arrival-log order
	stamps    []string          // each receipt's stage timestamps and error
	metaRoots map[uint64][32]byte
	txRoots   map[[2]uint64][32]byte // by (epoch, round)
	metaTxs   int                    // transactions across every meta-block
	retries   int                    // sync part retransmissions
	multiPart int                    // epochs synced in more than one part
	log       *chain.ArrivalLog
	images    map[uint64][]byte // store image at each kill epoch's prune
	recovered *chain.RecoveryInfo
}

// hostileTx must meet want at Submit, or on its receipt for ErrExecutionRejected.
type hostileTx struct {
	tx   *summary.Tx
	want error
}

// run drives one run of the world on cfg: the world's own traffic, or
// replay's boundaries re-submitted by one producer; on fsys's store when
// non-nil, keeping the store's image at each kill epoch's prune.
func (w world) run(t *testing.T, cfg chain.Config, replay *chain.ArrivalLog, fsys *store.MemFS) worldRun {
	t.Helper()
	ctx := context.Background()
	cfg.ArrivalLog = chain.NewArrivalLog()
	var node chain.Chain
	var err error
	if fsys != nil {
		node, err = OpenFS(fsys, "", cfg)
	} else {
		node, err = NewMultiSystem(cfg, cfg.Users)
	}
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ms := node.(*MultiSystem)
	defer ms.Close()
	out := worldRun{log: cfg.ArrivalLog, recovered: ms.Recovery(), metaRoots: make(map[uint64][32]byte),
		txRoots: make(map[[2]uint64][32]byte), images: make(map[uint64][]byte)}

	var mu sync.Mutex
	receipts := make(map[string]*chain.Receipt)
	keep := func(rc *chain.Receipt) {
		mu.Lock()
		receipts[rc.TxID] = rc
		mu.Unlock()
	}
	submit := func(tx *summary.Tx) {
		if rc, err := ms.Submit(ctx, tx); err == nil {
			keep(rc)
		} else if !errors.Is(err, chain.ErrHalted) {
			t.Errorf("submit %s: %v", tx.ID, err)
		}
	}
	ms.OnEvent(func(ev chain.Event) {
		switch {
		case ev.Type == chain.EventMetaBlock:
			metas := ms.SidechainLedger().MetaBlocks(ev.Epoch)
			b := metas[len(metas)-1]
			if want := sidechain.TxRoot(b.Txs); b.Round != ev.Round || b.TxRoot != want {
				t.Errorf("meta-block %d/%d (tip round %d): TxRoot %x, reference %x", ev.Epoch, ev.Round, b.Round, b.TxRoot[:8], want[:8])
			}
			out.txRoots[[2]uint64{ev.Epoch, ev.Round}] = b.TxRoot
			out.metaTxs += len(b.Txs)
		case ev.Type == chain.EventSyncRetry:
			out.retries++
		case ev.Type == chain.EventSyncSubmitted && ev.Parts > 1:
			out.multiPart++
		case ev.Type == chain.EventPruned && fsys != nil && slices.Contains(w.kills, ev.Epoch):
			// The prune publishes while the store lane may still write the
			// file; the image is what the node holds once it is idle.
			_ = ms.storeLane.join()
			out.images[ev.Epoch], _ = fsys.ReadFile(store.FileName)
		}
	})

	boundary := 0
	inject := func(k int) {
		for _, tx := range replay.Txs(k) {
			submit(tx)
		}
	}
	rounds := make(chan struct{}, 1024) // ticks queue up while producers are busy, so a slow one catches up
	ms.OnRoundStart = func(e, r uint64) {
		if e == w.whale && r == 1 { // on every run: a deposit within 1 000 of 2^256 lands, a second would wrap
			if rc, err := ms.SubmitDeposit("whale", e, u256.FromUint64(1<<30), u256.Sub(u256.Max, u256.FromUint64(1000))); err != nil || rc.Status != chain.StatusExecuted {
				t.Errorf("near-max deposit: %v, receipt %+v", err, rc)
			}
			if _, err := ms.SubmitDeposit("whale", e, u256.Zero, u256.FromUint64(2000)); !errors.Is(err, summary.ErrDepositOverflow) {
				t.Errorf("overflowing deposit: err = %v, want ErrDepositOverflow", err)
			}
		}
		if replay != nil {
			boundary++
			k := boundary
			ms.Sim().At(ms.Sim().Now(), func() { inject(k) })
		} else if w.traffic == producerTraffic {
			select {
			case rounds <- struct{}{}:
			default:
			}
			time.Sleep(100 * time.Microsecond) // room for a woken producer to reach the mempool
		}
	}
	late := make(map[*chain.Receipt]hostileTx)
	wait := func() {}
	if replay != nil {
		ms.Sim().At(0, func() { inject(0) })
	} else {
		ms.OnEpochStart = func(e uint64) {
			if w.traffic == epochTraffic {
				for _, tx := range w.epochTxs(e) {
					submit(tx)
				}
			}
			for _, h := range w.hostile(e) {
				if rc, err := ms.Submit(ctx, h.tx); err == nil && h.want == chain.ErrExecutionRejected {
					keep(rc)
					late[rc] = h
				} else if !errors.Is(err, h.want) {
					t.Errorf("hostile %+v: err = %v, want %v", h.tx, err, h.want)
				}
			}
		}
		switch w.traffic {
		case timedTraffic:
			gen := workload.NewMulti(w.mix(w.seed, "t/", rand.New(rand.NewSource(w.seed)), false))
			rho := max(1, w.perEpoch/cfg.EpochRounds)
			workload.ConstantRate(rho, w.epochs*cfg.EpochRounds, cfg.RoundDuration, func(at time.Duration) {
				ms.Sim().At(at, func() { submit(gen.Next()) })
			})
		case producerTraffic:
			wait = w.produce(t, ms, keep, rounds)
		}
	}
	out.rep, out.err = ms.Run(w.epochs)
	wait()
	switch {
	case out.err == nil && w.halt != nil:
		t.Fatalf("run completed, want it halted with %v", w.halt)
	case out.err == nil:
		if err := ms.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
		lost := len(cfg.Faults.SkipSyncEpochs)
		if out.rep.MassSyncs != lost || ms.LastSyncedEpoch() != uint64(out.rep.EpochsRun) {
			t.Errorf("%d mass-syncs for %d lost Syncs, bank synced to %d of %d epochs",
				out.rep.MassSyncs, lost, ms.LastSyncedEpoch(), out.rep.EpochsRun)
		}
	case w.halt == nil && !errors.Is(out.err, chain.ErrConsensusStalled):
		t.Fatalf("run err = %v, want nil: only live consensus may stall a plan that does not halt", out.err)
	case !slices.ContainsFunc([]error{chain.ErrSyncReverted, chain.ErrSyncUnreachable, chain.ErrConsensusStalled},
		func(s error) bool { return errors.Is(out.err, s) }):
		t.Fatalf("run err = %v, want nil or a fault plan's halt", out.err)
	}
	for rc, h := range late {
		if rc.Status != chain.StatusPending && (rc.Status != chain.StatusRejected || !errors.Is(rc.Err, h.want)) {
			t.Errorf("hostile %s: receipt %v / %v, want rejected with %v", h.tx.ID, rc.Status, rc.Err, h.want)
		}
	}
	var rcs []*chain.Receipt
	for k := 0; k < out.log.Boundaries(); k++ {
		for _, tx := range out.log.Txs(k) {
			rc := receipts[tx.ID]
			if rc == nil {
				t.Fatalf("no receipt for logged tx %s", tx.ID)
			}
			rcs = append(rcs, rc)
			out.stamps = append(out.stamps, fmt.Sprint(rc.SubmittedAt, rc.ExecutedAt, rc.CheckpointedAt, rc.SyncedAt, rc.PrunedAt, rc.Err))
		}
	}
	out.fp = ms.Fingerprint(rcs)
	for _, sb := range ms.SidechainLedger().Summaries() {
		out.metaRoots[sb.Epoch] = sb.MetaRoot
	}
	return out
}

// sameRun compares two runs of one world bit for bit; receipts come in
// each run's arrival-log order. timing adds every receipt's stage times,
// the duration, the network counters and the arrival log boundary for
// boundary (drain time and transaction order).
func sameRun(t *testing.T, label string, want, got worldRun, timing bool) {
	t.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Errorf("%s: run err %v, want %v", label, got.err, want.err)
	}
	if err := want.fp.Diff(got.fp); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	a, b := want.rep, got.rep
	if x, y := []int{a.EpochsRun, a.SyncsOK, a.ViewChanges, len(want.metaRoots), len(want.txRoots)},
		[]int{b.EpochsRun, b.SyncsOK, b.ViewChanges, len(got.metaRoots), len(got.txRoots)}; !slices.Equal(x, y) {
		t.Errorf("%s: epochs, syncs, view changes, summaries, meta-blocks %v, want %v", label, y, x)
	}
	if !maps.Equal(want.metaRoots, got.metaRoots) { // a MetaRoot covers every meta-block's TxRoot
		t.Errorf("%s: summary MetaRoots %x, want %x", label, got.metaRoots, want.metaRoots)
	}
	if !timing {
		return
	}
	if a.Duration != b.Duration || a.NetStats != b.NetStats {
		t.Errorf("%s: ran %v with %+v, want %v with %+v", label, b.Duration, b.NetStats, a.Duration, a.NetStats)
	}
	for i := range min(len(want.stamps), len(got.stamps)) {
		if want.stamps[i] != got.stamps[i] {
			t.Errorf("%s: receipt %s stamps %s, want %s", label, want.fp.Receipts[i].TxID, got.stamps[i], want.stamps[i])
			break
		}
	}
	ids := func(txs []*summary.Tx) []string {
		out := make([]string, len(txs))
		for i, tx := range txs {
			out[i] = tx.ID
		}
		return out
	}
	for k := range max(want.log.Boundaries(), got.log.Boundaries()) {
		if k >= min(want.log.Boundaries(), got.log.Boundaries()) || want.log.At(k) != got.log.At(k) ||
			!slices.Equal(ids(want.log.Txs(k)), ids(got.log.Txs(k))) {
			t.Errorf("%s: arrival-log boundary %d of %d differs (want %d boundaries)", label, k, got.log.Boundaries(), want.log.Boundaries())
			break
		}
	}
}

// mix is the Table VII mix for the world's traders over the pools
// traffic draws from: all of them, or when sparse one to three (none for
// a third of the epochs that mayIdle).
func (w world) mix(seed int64, prefix string, rng *rand.Rand, mayIdle bool) workload.MultiConfig {
	ids := make([]string, w.cfg.NumPools)
	for i := range ids {
		ids[i] = engine.PoolName(i)
	}
	if w.sparse {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		n := 1 + rng.Intn(3)
		if mayIdle && rng.Intn(3) == 0 {
			n = 0
		}
		ids = ids[:min(n, len(ids))]
	}
	c := workload.DefaultMultiConfig(seed, len(ids))
	c.NumUsers, c.PoolIDs, c.IDPrefix = worldUsers, ids, prefix
	return c
}

// epochTxs is epoch e's traffic, derived from (seed, e) alone.
func (w world) epochTxs(e uint64) []*summary.Tx {
	seed := w.seed*1_000_003 + int64(e)
	c := w.mix(seed, fmt.Sprintf("e%d/", e), rand.New(rand.NewSource(seed)), e > 1)
	if len(c.PoolIDs) == 0 {
		return nil
	}
	gen := workload.NewMulti(c)
	txs := make([]*summary.Tx, w.perEpoch)
	for i := range txs {
		txs[i] = gen.Next()
	}
	return txs
}

// produce submits every producer's first batch, then starts producer
// goroutines that pace their batches on round ticks, so arrivals race
// the drain boundaries; the returned func waits for them.
func (w world) produce(t *testing.T, ms *MultiSystem, keep func(*chain.Receipt), rounds <-chan struct{}) func() {
	gens := workload.Producers(w.mix(w.seed, "", rand.New(rand.NewSource(w.seed)), false), w.producers)
	done := func(err error) bool { // a closed or halted node ends the producer
		if err != nil && !errors.Is(err, chain.ErrClosed) && !errors.Is(err, chain.ErrHalted) {
			t.Errorf("producer: %v", err)
		}
		return err != nil
	}
	var wg sync.WaitGroup
	for _, gen := range gens {
		send := func() bool {
			txs := make([]*summary.Tx, 16)
			for i := range txs {
				txs[i] = gen.Next()
			}
			res, err := ms.SubmitBatch(context.Background(), txs)
			for i := 0; err == nil && i < len(txs); i++ {
				if !done(res.Errs[i]) {
					keep(res.Receipts[i])
				}
			}
			return !done(err)
		}
		send() // the run starts with every producer's first batch in
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent := 16; sent < w.perEpoch*w.epochs/w.producers && send(); sent += 16 {
				select {
				case <-rounds:
				case <-time.After(300 * time.Microsecond):
				}
			}
		}()
	}
	return wg.Wait
}

// hostile is epoch e's hostile submissions: three drawn from malformed,
// inverted or out-of-range ticks, unknown pool or user, and another
// owner's or a missing position, plus, in the whale's epoch, a swap
// whose output would carry the whale's deposit past 2^256.
func (w world) hostile(e uint64) []hostileTx {
	rng := rand.New(rand.NewSource(w.seed*7_919 + int64(e)))
	pool := engine.PoolName(rng.Intn(w.cfg.NumPools))
	user := fmt.Sprintf("user-%03d", rng.Intn(worldUsers))
	mk := func(kind gasmodel.TxKind, edit func(*summary.Tx)) *summary.Tx {
		tx := &summary.Tx{Kind: kind, User: user, PoolID: pool, ZeroForOne: true, ExactIn: true, Amount: u256.One,
			TickLower: -600, TickUpper: 600, Amount0Desired: u256.FromUint64(1 << 20), Amount1Desired: u256.FromUint64(1 << 20),
			PosID: engine.GenesisPositionID(pool), BurnFractionBps: 5_000, Collect0: u256.Max, Collect1: u256.Max}
		edit(tx)
		return tx
	}
	swap, mint, burn := gasmodel.KindSwap, gasmodel.KindMint, gasmodel.KindBurn
	all := []hostileTx{
		{mk(swap, func(tx *summary.Tx) { tx.Amount = u256.Zero }), chain.ErrMalformedTx},
		{mk(swap, func(tx *summary.Tx) { tx.User = "" }), chain.ErrMalformedTx},
		{mk(mint, func(tx *summary.Tx) { tx.TickLower, tx.TickUpper = 600, -600 }), chain.ErrMalformedTx},
		{mk(mint, func(tx *summary.Tx) { tx.TickLower = amm.MinTick - 60 }), chain.ErrMalformedTx},
		{mk(mint, func(tx *summary.Tx) { tx.TickUpper = amm.MaxTick + 60 }), chain.ErrMalformedTx},
		{mk(burn, func(tx *summary.Tx) { tx.BurnFractionBps = 20_000 }), chain.ErrMalformedTx},
		{mk(swap, func(tx *summary.Tx) { tx.PoolID = "pool-9999" }), chain.ErrUnknownPool},
		{mk(swap, func(tx *summary.Tx) { tx.User = "mallory" }), chain.ErrUnfundedUser},
		{mk(burn, func(*summary.Tx) {}), chain.ErrExecutionRejected}, // another owner's position
		{mk(gasmodel.KindCollect, func(tx *summary.Tx) { tx.PosID = "no-such-position" }), chain.ErrExecutionRejected},
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := all[:3]
	if e == w.whale {
		out = append(out, hostileTx{mk(swap, func(tx *summary.Tx) {
			tx.User, tx.PoolID, tx.Amount = "whale", engine.PoolName(0), u256.FromUint64(1<<20)
		}), chain.ErrExecutionRejected})
	}
	for i := range out {
		out[i].tx.ID = fmt.Sprintf("h-e%d-%d", e, i)
	}
	return out
}

// A pin fixes the dimension a named determinism test is about on a world
// the seed otherwise generates; name labels the subtest.
type pin struct {
	name string
	set  func(*world)
}

// pinned runs the world property on World(seed) for every seed and pin,
// with its halting fault (if any) dropped and the pin applied. A pinned
// world must complete and run at least its planned epochs; more adds the
// test's own checks. Kill legs stay only where the pin keeps the world
// killable.
func pinned(t *testing.T, seeds []int64, pins []pin, more func(*testing.T, world, worldRuns)) {
	for _, seed := range seeds {
		for _, p := range pins {
			name := fmt.Sprintf("seed=%d", seed)
			if p.name != "" {
				name += "," + p.name
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				w := World(seed)
				w.noHalt()
				p.set(&w)
				if !w.killable() {
					w.kills = nil
				}
				runs := w.checkLogged(t)
				if runs.main.err != nil {
					t.Fatalf("pinned world halted: %v", runs.main.err)
				}
				if len(runs.main.fp.Epochs) < w.epochs {
					t.Fatalf("%d summary roots recorded, want >= %d", len(runs.main.fp.Epochs), w.epochs)
				}
				if more != nil {
					more(t, w, runs)
				}
			})
		}
	}
}

// noHalt drops the world's halting fault; the faults that only cost time
// stay.
func (w *world) noHalt() {
	switch w.halt {
	case chain.ErrSyncReverted:
		w.cfg.Faults.CorruptSyncEpochs = nil
	case chain.ErrSyncUnreachable:
		w.cfg.SyncFaults = nil
	case chain.ErrConsensusStalled:
		w.cfg.NetFaults, w.cfg.LiveRoundTimeout = nil, 0
	}
	w.halt = nil
}

// calm drops every fault.
func (w *world) calm() {
	w.noHalt()
	w.cfg.Faults, w.cfg.SyncFaults, w.cfg.NetFaults = chain.FaultPlan{}, nil, nil
}

// killEverywhere makes the world killable and kills it at every epoch
// boundary before the last.
func (w *world) killEverywhere(epochs int) {
	w.traffic, w.store, w.epochs, w.kills = epochTraffic, true, epochs, nil
	for k := 1; k < epochs; k++ {
		w.kills = append(w.kills, uint64(k))
	}
}

// midsize gives the world at least pools pools, 40 transactions an
// epoch, at most 10 committee members and the model consensus path
// (dropping the faults only live consensus takes): a small draw does not
// leave the pinned dimension idle, and a large one does not slow a test
// whose point is elsewhere.
func (w *world) midsize(pools int) {
	w.cfg.NumPools, w.perEpoch, w.cfg.CommitteeSize = max(w.cfg.NumPools, pools), 40, min(w.cfg.CommitteeSize, 10)
	w.cfg.ConsensusFidelity, w.cfg.NetFaults, w.cfg.Faults.ByzantineReplicas, w.cfg.LiveRoundTimeout = chain.FidelityModel, nil, nil, 0
}

// pinEach is one pin per value, each setting it with set.
func pinEach(dim string, values []int, set func(*world, int)) []pin {
	pins := make([]pin, len(values))
	for i, v := range values {
		pins[i] = pin{fmt.Sprintf("%s=%d", dim, v), func(w *world) { set(w, v) }}
	}
	return pins
}

// TestMultiSystemDeterministicRoots: the full lifecycle yields
// bit-identical summary roots, payload digests and receipt outcomes on
// 4 and 16 shards as on the 1-shard twin.
func TestMultiSystemDeterministicRoots(t *testing.T) {
	pinned(t, []int64{1, 42, 1337}, pinEach("shards", []int{4, 16}, func(w *world, n int) {
		w.midsize(16)
		w.cfg.NumShards = n
	}), nil)
}

// TestMultiSystemMetaBlockRoots pins what chain.Fingerprint does not
// cover: every committed meta-block's TxRoot (folded from the shards'
// leaves) equals sidechain.TxRoot over its transactions, read before the
// epoch is pruned, and every epoch's summary MetaRoot on 2 shards equals
// the 1-shard twin's.
func TestMultiSystemMetaBlockRoots(t *testing.T) {
	pinned(t, []int64{5, 42}, []pin{{"shards=2", func(w *world) {
		w.midsize(16)
		w.cfg.NumShards = 2
	}}}, func(t *testing.T, _ world, r worldRuns) {
		if len(r.main.txRoots) == 0 || r.main.metaTxs == 0 || len(r.main.metaRoots) == 0 {
			t.Fatalf("checked %d meta-blocks with %d txs, %d summaries", len(r.main.txRoots), r.main.metaTxs, len(r.main.metaRoots))
		}
	})
}

// TestPipelineDepthEquivalence: pipelines 2 and 3 deep produce what the
// depth-1 twin does; only timing may differ between depths. One more
// world is wide: 256 pools and a 180-member committee, fault-free, where
// every epoch's Sync lands at depth 2 and on the depth-1 twin.
func TestPipelineDepthEquivalence(t *testing.T) {
	pinned(t, []int64{1, 42, 1337}, pinEach("depth", []int{2, 3}, func(w *world, d int) {
		w.midsize(16)
		w.cfg.PipelineDepth = d
	}), nil)
	pinned(t, []int64{42}, []pin{{"depth=2,pools=256,committee=180", func(w *world) {
		w.calm()
		w.midsize(256)
		w.perEpoch, w.cfg.CommitteeSize, w.cfg.PipelineDepth = 400, 180, 2
	}}}, func(t *testing.T, _ world, r worldRuns) {
		for _, run := range []worldRun{r.main, r.twin} {
			if run.rep.SyncsOK != run.rep.EpochsRun {
				t.Errorf("%d of %d epochs synced", run.rep.SyncsOK, run.rep.EpochsRun)
			}
		}
	})
}

// TestPipelineDepthEquivalenceTimedArrivals is the depth pin for traffic
// arriving at fixed virtual times on rounds shorter than a 100-member
// committee's summary agreement: a depth whose next epoch waited for the
// agreement would move later arrivals into other epochs.
func TestPipelineDepthEquivalenceTimedArrivals(t *testing.T) {
	pinned(t, []int64{42}, pinEach("depth", []int{2, 3}, func(w *world, d int) {
		w.midsize(16)
		w.traffic, w.epochs, w.cfg.NumShards, w.cfg.PipelineDepth = timedTraffic, 3, 4, d
		w.cfg.ConsensusFidelity, w.cfg.RoundDuration, w.cfg.CommitteeSize = chain.FidelityModel, 500*time.Millisecond, 100
	}), nil)
}

// TestKillRestartDeterminism: a node killed after any epoch's prune and
// reopened re-derives the uninterrupted run's roots, payload digests and
// receipt outcomes; the store-backed run itself matches the storeless
// twin, so the store perturbs nothing.
func TestKillRestartDeterminism(t *testing.T) {
	pinned(t, []int64{1, 42, 1337}, []pin{{"", func(w *world) {
		w.midsize(8)
		w.killEverywhere(4)
		w.cfg.CompactEvery = 0
	}}}, nil)
}

// TestCompactedRestartDeterminism: with the store compacting at every
// confirmed epoch, both a reopened node and a fresh node bootstrapped
// from the image (a peer's fast-sync snapshot) resume to the
// uninterrupted run; every image holds a checkpoint.
func TestCompactedRestartDeterminism(t *testing.T) {
	pinned(t, []int64{1, 42, 1337}, []pin{{"", func(w *world) {
		w.midsize(8)
		w.killEverywhere(4)
		w.cfg.CompactEvery = 1
	}}}, func(t *testing.T, w world, r worldRuns) {
		for _, k := range w.kills {
			fsys := &store.MemFS{}
			writeMemStore(t, fsys, r.main.images[k])
			rec, sw, err := store.Open(fsys, "", DeploymentFingerprint(w.cfg))
			if err != nil {
				t.Fatalf("kill@%d: scan: %v", k, err)
			}
			sw.Close()
			if rec.Checkpoint == nil {
				t.Errorf("kill@%d: image holds no checkpoint", k)
			}
		}
	})
}

// TestKillRestartWithIdlePools: a sparse store-backed run, idle pools and
// traffic-free epochs included, killed at every boundary and reopened
// replays sync parts that leave idle pools out (and a traffic-free
// epoch's payload-free part) to the uninterrupted run.
func TestKillRestartWithIdlePools(t *testing.T) {
	pinned(t, []int64{29}, []pin{{"", func(w *world) {
		w.killEverywhere(7)
		w.sparse, w.cfg.NumPools, w.cfg.NumShards, w.cfg.PipelineDepth, w.cfg.CompactEvery = true, 8, 2, 2, 0
	}}}, func(t *testing.T, w world, _ worldRuns) {
		for e := uint64(1); e <= uint64(w.epochs); e++ {
			if len(w.epochTxs(e)) == 0 {
				return
			}
		}
		t.Fatal("no traffic-free epoch")
	})
}

// TestTraceOnOffDeterminism: a traced run matches its untraced twin; the
// tracer reads only the wall clock, so it never perturbs state.
func TestTraceOnOffDeterminism(t *testing.T) {
	pinned(t, []int64{1, 42, 1337}, []pin{{"", func(w *world) {
		w.midsize(16)
		w.cfg.Tracer = trace.New(4)
	}}}, nil)
}

// TestConcurrentIngestReplayDeterminism: four producers racing the drain
// boundaries and a single producer replaying their arrival log give the
// same fingerprint, receipt stage times and arrival log, boundary for
// boundary, at pipeline depths 1 and 2; so do eight producers at depth
// 2. Every batch is admitted whole (produce fails on any rejection).
func TestConcurrentIngestReplayDeterminism(t *testing.T) {
	admitted := func(t *testing.T, _ world, r worldRuns) {
		if r.main.log.Total() == 0 {
			t.Fatal("the producers admitted nothing")
		}
	}
	pinned(t, []int64{1, 42, 1337}, pinEach("depth", []int{1, 2}, func(w *world, d int) {
		w.midsize(8)
		w.traffic, w.producers, w.perEpoch, w.cfg.PipelineDepth = producerTraffic, 4, 250, d
	}), admitted)
	pinned(t, []int64{42}, []pin{{"depth=2,producers=8", func(w *world) {
		w.midsize(8)
		w.traffic, w.producers, w.perEpoch, w.cfg.PipelineDepth = producerTraffic, 8, 500, 2
	}}}, admitted)
}

// TestLiveModelEquivalence: with no faults, committee rounds through
// real PBFT over the simulated network yield the model path's summary
// roots, payload digests and receipt outcomes; the model is a timing
// shortcut, never a semantic one.
func TestLiveModelEquivalence(t *testing.T) {
	pinned(t, []int64{1, 42, 1337}, []pin{{"", func(w *world) {
		w.calm()
		w.midsize(8)
		w.cfg.ConsensusFidelity = chain.FidelityLive
	}}}, func(t *testing.T, w world, r worldRuns) {
		if w.twin().ConsensusFidelity != chain.FidelityModel {
			t.Fatal("twin is not on the model path")
		}
		if n := r.main.rep.NetStats; r.main.rep.ViewChanges != 0 || n.MessagesSent == 0 || n.MessagesDropped != 0 {
			t.Errorf("fault-free live run: %d view changes, %+v", r.main.rep.ViewChanges, n)
		}
	})
}

// TestLiveFidelityChaosDeterministicReplay: a live run over lossy,
// duplicating, reordering links, with a partition across the committee
// and a vote-stalling replica, re-runs bit for bit, including its
// completion instant and network counters.
func TestLiveFidelityChaosDeterministicReplay(t *testing.T) {
	pinned(t, []int64{42}, []pin{{"", func(w *world) {
		w.calm()
		w.midsize(8)
		w.cfg.ConsensusFidelity, w.cfg.RoundDuration = chain.FidelityLive, 7*time.Second
		w.cfg.NetFaults = &netsim.FaultSchedule{Seed: 99, DropProb: 0.03, DupProb: 0.05, ReorderProb: 0.2, ReorderDelay: 8 * time.Millisecond,
			Partitions: []netsim.PartitionWindow{{At: 8 * time.Second, Heal: 20 * time.Second,
				SideA: []string{"rep-0", "rep-1"}, SideB: []string{"rep-2", "rep-3", "rep-4"}}}}
		w.cfg.Faults.ByzantineReplicas = map[int]pbft.Byzantine{2: pbft.VoteStall}
	}}}, func(t *testing.T, _ world, r worldRuns) {
		if n := r.main.rep.NetStats; r.main.rep.ViewChanges == 0 || n.MessagesDropped == 0 || n.MessagesDuplicated == 0 {
			t.Errorf("chaos cost %d view changes, %+v; want a view change, drops and duplicates", r.main.rep.ViewChanges, n)
		}
	})
}

// TestLiveFidelityByzantineDeterministicReplay: a live run whose leader
// proposes corrupt digests while another replica withholds its votes
// deposes the leader and re-runs bit for bit, including its view
// changes, completion instant and network counters.
func TestLiveFidelityByzantineDeterministicReplay(t *testing.T) {
	pinned(t, []int64{42}, []pin{{"", func(w *world) {
		w.calm()
		w.midsize(8)
		w.cfg.ConsensusFidelity, w.cfg.RoundDuration = chain.FidelityLive, 7*time.Second
		w.cfg.Faults.ByzantineReplicas = map[int]pbft.Byzantine{0: pbft.CorruptDigest, 2: pbft.VoteStall}
	}}}, func(t *testing.T, _ world, r worldRuns) {
		if r.main.rep.ViewChanges == 0 {
			t.Error("the corrupt-digest leader was never deposed")
		}
	})
}

// TestLiveFidelityKillRestart: a store-backed live node with a
// vote-stalling replica and a view change in epoch 1, killed after epoch
// 1's prune and reopened, re-derives the uninterrupted run's roots,
// payload digests and syncs, and reports its view changes.
func TestLiveFidelityKillRestart(t *testing.T) {
	pinned(t, []int64{42}, []pin{{"", func(w *world) {
		w.calm()
		w.midsize(8)
		w.killEverywhere(2)
		w.cfg.ConsensusFidelity, w.cfg.RoundDuration, w.cfg.CompactEvery = chain.FidelityLive, 7*time.Second, 0
		w.cfg.Faults.ByzantineReplicas = map[int]pbft.Byzantine{2: pbft.VoteStall}
		w.cfg.Faults.ViewChangeStormRounds = map[[2]uint64]int{{1, 2}: 1} // a vote-staller alone costs none
	}}}, func(t *testing.T, _ world, r worldRuns) {
		if r.main.rep.ViewChanges == 0 || len(r.resumed) != 1 {
			t.Fatalf("%d view changes, %d kill legs; want a view change before the one kill", r.main.rep.ViewChanges, len(r.resumed))
		}
		if got := r.resumed[0].rep.ViewChanges; got != r.main.rep.ViewChanges {
			t.Errorf("resumed run reports %d view changes, uninterrupted %d", got, r.main.rep.ViewChanges)
		}
	})
}

// TestLiveFidelityStormParityWithModel: a planned view-change storm costs
// the live committee the view changes the model path charges, and both
// commit the same state.
func TestLiveFidelityStormParityWithModel(t *testing.T) {
	pinned(t, []int64{23}, []pin{{"", func(w *world) {
		w.calm()
		w.midsize(8)
		w.cfg.ConsensusFidelity = chain.FidelityLive
		w.cfg.Faults.ViewChangeStormRounds = map[[2]uint64]int{{1, 2}: 1}
	}}}, func(t *testing.T, w world, r worldRuns) {
		if w.twin().ConsensusFidelity != chain.FidelityModel || r.main.rep.ViewChanges != 1 {
			t.Errorf("live run: %d view changes, twin %v; want 1 against the model path", r.main.rep.ViewChanges, w.twin().ConsensusFidelity)
		}
	})
}

// TestSyncUplinkLossKeepsFingerprint: a node whose uplink drops half its
// messages retries its way to the clean-uplink twin; the uplink perturbs
// timing, never state.
func TestSyncUplinkLossKeepsFingerprint(t *testing.T) {
	pinned(t, []int64{19}, []pin{{"", func(w *world) {
		w.cfg.SyncFaults = &netsim.FaultSchedule{Seed: 7, DropProb: 0.5}
	}}}, func(t *testing.T, w world, r worldRuns) {
		if w.twin().SyncFaults != nil || r.main.retries == 0 {
			t.Errorf("%d retransmissions under 50%% uplink loss, twin uplink %+v", r.main.retries, w.twin().SyncFaults)
		}
	})
}
