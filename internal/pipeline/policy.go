package pipeline

// FetchPolicyKind selects the SMT front-end fetch policy. All policies use
// ICOUNT priority ordering (the thread with the fewest in-flight front-end
// instructions fetches first); the advanced policies add long-latency-load
// gating on top, per their original papers:
//
//	STALL (Tullsen & Brown, MICRO'01): stop fetching for a thread with an
//	outstanding L2 miss.
//	FLUSH (Tullsen & Brown, MICRO'01): additionally squash the thread's
//	instructions after the missing load, freeing its pipeline resources.
//	DG — data gating (El-Moursy & Albonesi, HPCA'03): stop fetching for a
//	thread with any outstanding L1 data-cache miss.
//	PDG — predictive data gating (ibid.): predict which loads will miss
//	at fetch time and gate while any predicted-miss load is in flight.
type FetchPolicyKind uint8

// Fetch policies.
const (
	PolicyICOUNT FetchPolicyKind = iota
	PolicySTALL
	PolicyFLUSH
	PolicyDG
	PolicyPDG

	numPolicies
)

var policyNames = [...]string{
	PolicyICOUNT: "ICOUNT",
	PolicySTALL:  "STALL",
	PolicyFLUSH:  "FLUSH",
	PolicyDG:     "DG",
	PolicyPDG:    "PDG",
}

func (k FetchPolicyKind) String() string {
	if int(k) < len(policyNames) {
		return policyNames[k]
	}
	return "policy(?)"
}

// AllPolicies lists every fetch policy.
func AllPolicies() []FetchPolicyKind {
	return []FetchPolicyKind{PolicyICOUNT, PolicySTALL, PolicyFLUSH, PolicyDG, PolicyPDG}
}

// pdgTableSize is the PDG load-miss predictor capacity (2-bit counters).
const pdgTableSize = 4096

// policyState holds fetch-policy bookkeeping beyond the per-thread
// counters (which live in thread).
type policyState struct {
	kind FetchPolicyKind
	pdg  []uint8 // 2-bit miss-prediction counters, PC-indexed
}

func newPolicyState(kind FetchPolicyKind) *policyState {
	ps := &policyState{kind: kind}
	if kind == PolicyPDG {
		ps.pdg = make([]uint8, pdgTableSize)
	}
	return ps
}

// gated reports whether the policy forbids fetching for t this cycle.
// useFlush indicates FLUSH semantics are active (either the base policy is
// FLUSH or opt2/DVM engaged it).
func (ps *policyState) gated(t *thread, useFlush bool) bool {
	if useFlush && (t.flushStall || t.outstandingL2 > 0) {
		return true
	}
	switch ps.kind {
	case PolicySTALL:
		return t.outstandingL2 > 0
	case PolicyFLUSH:
		return t.flushStall || t.outstandingL2 > 0
	case PolicyDG:
		return t.outstandingL1D > 0
	case PolicyPDG:
		return t.pdgInFlight > 0
	default:
		return false
	}
}

// flushOnL2Miss reports whether an L2 data miss should squash the thread
// behind the missing load.
func (ps *policyState) flushOnL2Miss(useFlush bool) bool {
	return useFlush || ps.kind == PolicyFLUSH
}

func (ps *policyState) pdgIndex(pc uint64) int {
	return int(pc>>2) & (pdgTableSize - 1)
}

// pdgPredictMiss predicts whether the load at pc will miss the L1D.
func (ps *policyState) pdgPredictMiss(pc uint64) bool {
	if ps.pdg == nil {
		return false
	}
	return ps.pdg[ps.pdgIndex(pc)] >= 2
}

// pdgTrain updates the miss predictor with a load's actual behaviour.
func (ps *policyState) pdgTrain(pc uint64, missed bool) {
	if ps.pdg == nil {
		return
	}
	i := ps.pdgIndex(pc)
	c := ps.pdg[i]
	if missed {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	ps.pdg[i] = c
}
