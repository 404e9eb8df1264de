package cluster

import (
	"fmt"

	"sinan/internal/sim"
)

// Stage is one node of a request's call tree: CPU demand executed at a tier,
// followed by downstream RPC calls (sequential or parallel). A request holds
// a connection slot at the stage's tier for the duration of its subtree, so
// slow downstream tiers back-pressure their callers. A tree must not change
// once it has been submitted: each cluster compiles it on first sight.
type Stage struct {
	Tier       string   // tier name
	Work       float64  // mean CPU-seconds of demand at this tier
	Packets    float64  // extra payload packets per call (on top of 1 per RPC)
	WriteBytes float64  // write volume recorded at the tier (drives RSS growth)
	Parallel   bool     // children issued concurrently rather than in order
	Children   []*Stage // downstream calls made after this stage's CPU work
}

// node is a Stage compiled against one cluster: the tier resolved, the
// packet count and the log-normal parameters of the CPU demand computed
// once. Nodes belong to the Cluster, never to the Stage, because parallel
// runs share one application's trees.
type node struct {
	tier       *Tier
	pkts       int64   // packets per RPC direction
	writeBytes float64 // write volume recorded at the tier per call
	hasWork    bool
	mu, sigma  float64 // of the CPU demand, when hasWork
	parallel   bool
	children   []*node
}

// compiled returns the node tree for root, building it on first use.
func (c *Cluster) compiled(root *Stage) *node {
	if n := c.trees[root]; n != nil {
		return n
	}
	n := c.compile(root)
	c.trees[root] = n
	return n
}

func (c *Cluster) compile(s *Stage) *node {
	t := c.byName[s.Tier]
	if t == nil {
		panic(fmt.Sprintf("cluster: unknown tier %q in call tree", s.Tier))
	}
	n := &node{
		tier:       t,
		pkts:       int64(1 + s.Packets),
		writeBytes: s.WriteBytes,
		hasWork:    s.Work > 0,
		parallel:   s.Parallel,
	}
	if n.hasWork {
		n.mu, n.sigma = sim.LogNormalParams(s.Work, t.cfg.WorkCV)
	}
	for _, ch := range s.Children {
		n.children = append(n.children, c.compile(ch))
	}
	return n
}

// call is one stage of one request in flight. It lives from the moment the
// stage asks its tier for a connection slot until the stage's subtree has
// finished (or the request was refused at admission), and moves through
//
//	enqueued -> granted (slot held, CPU demand drawn) -> work done ->
//	children issued (in order, or all at once and joined) -> finished
//
// driven by the tier (granted, workDone) and by its own children
// (childDone). Whoever resolves a call recycles it: calls come from, and
// return to, the cluster's free list, so a steady-state request allocates
// nothing.
type call struct {
	c      *Cluster
	node   *node
	parent *call // the calling stage; nil at the root

	next      int  // sequential children: the next one to issue
	remaining int  // parallel children: still running
	ok        bool // no child has failed so far

	// root only
	submitted float64
	onDone    func(latency float64, dropped bool)

	// workDoneFn is k.workDone bound once, when k is first created, for the
	// zero-work path that goes through an engine event.
	workDoneFn func()
}

func (c *Cluster) newCall(n *node, parent *call) *call {
	var k *call
	if last := len(c.freeCalls) - 1; last >= 0 {
		k = c.freeCalls[last]
		c.freeCalls = c.freeCalls[:last]
	} else {
		k = &call{c: c}
		k.workDoneFn = k.workDone
	}
	k.node, k.parent = n, parent
	return k
}

// Submit injects a request executing the given call tree. onDone is invoked
// exactly once, with the end-to-end latency in seconds and whether the
// request was dropped at some saturated admission queue.
func (c *Cluster) Submit(root *Stage, onDone func(latency float64, dropped bool)) {
	n := c.compiled(root)
	k := c.newCall(n, nil)
	k.submitted, k.onDone = c.Eng.Now(), onDone
	k.exec()
}

// exec starts the stage: count the RPC's request packets and ask the tier
// for a connection slot. A refusal resolves the call at once.
func (k *call) exec() {
	t, pkts := k.node.tier, k.node.pkts
	// RPC request packets: caller sends, callee receives.
	t.netRx += pkts
	if k.parent != nil {
		k.parent.node.tier.netTx += pkts
	}
	if !t.acquireSlot(k) {
		k.resolve(false)
	}
}

// granted runs when the tier hands k a slot: draw the CPU demand and put it
// on the tier's processor-sharing queue.
func (k *call) granted() {
	n, t := k.node, k.node.tier
	if n.writeBytes > 0 {
		t.recordWrite(n.writeBytes)
	}
	work := 0.0
	if n.hasWork {
		work = t.rng.LogNormalFrom(n.mu, n.sigma)
	}
	t.execWork(work, k)
}

// workDone runs when k's CPU demand has been served: issue the downstream
// calls, all at once for a parallel stage and one after another otherwise.
func (k *call) workDone() {
	children := k.node.children
	k.ok = true
	if len(children) == 0 {
		k.finish()
		return
	}
	if !k.node.parallel {
		k.next = 0
		k.issueNext()
		return
	}
	// A child refused at admission reports back before the loop ends, so
	// the join counts from the full fan-out, and the last child to report
	// may finish and recycle k inside the loop.
	k.remaining = len(children)
	for _, ch := range children {
		k.c.newCall(ch, k).exec()
	}
}

func (k *call) issueNext() {
	children := k.node.children
	if k.next == len(children) {
		k.finish()
		return
	}
	ch := children[k.next]
	k.next++
	k.c.newCall(ch, k).exec()
}

// childDone joins one finished child. A failed child fails the stage but
// does not stop its siblings.
func (k *call) childDone(ok bool) {
	if !ok {
		k.ok = false
	}
	if !k.node.parallel {
		k.issueNext()
		return
	}
	if k.remaining--; k.remaining == 0 {
		k.finish()
	}
}

// finish ends a stage whose subtree has run: count the response packets,
// release the slot (which may grant it to a waiting call at once), and
// resolve.
func (k *call) finish() {
	t, pkts := k.node.tier, k.node.pkts
	// RPC response packets: callee replies, caller receives.
	t.netTx += pkts
	if k.parent != nil {
		k.parent.node.tier.netRx += pkts
	}
	t.releaseSlot()
	k.resolve(k.ok)
}

// resolve reports k's outcome to its caller — the parent stage, or for a
// root the cluster's counters and the submitter — and recycles k. Nothing
// reads k after it is on the free list: the callee may submit a request
// and be handed k again.
func (k *call) resolve(ok bool) {
	c, parent, onDone, submitted := k.c, k.parent, k.onDone, k.submitted
	c.freeCalls = append(c.freeCalls, k)
	if parent != nil {
		parent.childDone(ok)
		return
	}
	c.completed++
	if !ok {
		c.droppedReqs++
	}
	if onDone != nil {
		onDone(c.Eng.Now()-submitted, !ok)
	}
}
