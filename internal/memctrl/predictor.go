package memctrl

// This file implements the prediction-based page-management machinery
// of §V: 2-bit bimodal open/close predictors (local, keyed by bank;
// global, keyed by requesting thread), a tournament chooser over
// {open, close, local, global}, and the bookkeeping shared by the
// static policies so their "prediction hit rate" can be reported the
// way Fig. 13 does.

import "microbank/internal/reuse"

// bimodal is the paper's 2-bit predictor: states 00 strongly-open,
// 01 open, 10 close, 11 strongly-close.
type bimodal uint8

const (
	stronglyOpen bimodal = iota
	weaklyOpen
	weaklyClose
	stronglyClose
)

// predictOpen returns true when the state predicts "keep the row open".
func (b bimodal) predictOpen() bool { return b <= weaklyOpen }

// update trains toward the observed outcome (openWasRight = the next
// access to the bank hit the same row).
func (b bimodal) update(openWasRight bool) bimodal {
	if openWasRight {
		if b > stronglyOpen {
			return b - 1
		}
		return b
	}
	if b < stronglyClose {
		return b + 1
	}
	return b
}

// component identifies a tournament candidate.
type component int

const (
	compOpen component = iota
	compClose
	compLocal
	compGlobal
	numComponents
)

// pagePredictor bundles all predictor state for one memory controller.
type pagePredictor struct {
	local  []bimodal // per local bank
	global []bimodal // per thread

	// chooser holds per-bank saturating scores (0..7) per component;
	// the tournament picks the highest-scoring component ("a bimodal
	// scheme to pick one out of the open, close, local, and global
	// predictors", §V).
	chooser [][numComponents]uint8

	// Decision-quality statistics (Fig. 13's "prediction hit rate").
	Decisions uint64
	Correct   uint64
}

func newPagePredictor(banks, threads int) *pagePredictor {
	p := &pagePredictor{
		local:   reuse.Take[bimodal](banks),
		global:  reuse.Take[bimodal](threads),
		chooser: reuse.Take[[numComponents]uint8](banks),
	}
	for i := range p.chooser {
		// Start every component mid-scale.
		for c := range p.chooser[i] {
			p.chooser[i][c] = 4
		}
	}
	return p
}

// release hands the predictor tables to the reuse store; the decision
// counters stay readable.
func (p *pagePredictor) release() {
	reuse.Put(p.local)
	reuse.Put(p.global)
	reuse.Put(p.chooser)
	p.local, p.global, p.chooser = nil, nil, nil
}

// predictComponent returns a single component's open/close prediction.
func (p *pagePredictor) predictComponent(c component, bank, thread int) bool {
	switch c {
	case compOpen:
		return true
	case compClose:
		return false
	case compLocal:
		return p.local[bank].predictOpen()
	default:
		return p.global[thread].predictOpen()
	}
}

// tournamentPick returns the currently winning component for the bank.
// Ties resolve in the fixed order local > open > close > global, which
// keeps the chooser stable and favors the adaptive per-bank history the
// paper found strongest.
func (p *pagePredictor) tournamentPick(bank int) component {
	order := []component{compLocal, compOpen, compClose, compGlobal}
	best := order[0]
	for _, c := range order[1:] {
		if p.chooser[bank][c] > p.chooser[bank][best] {
			best = c
		}
	}
	return best
}

// predictTournament returns the tournament's open/close prediction.
func (p *pagePredictor) predictTournament(bank, thread int) bool {
	return p.predictComponent(p.tournamentPick(bank), bank, thread)
}

// train updates all adaptive structures with the resolved outcome of a
// decision made for (bank, thread). predictedOpen is what the active
// policy chose; openWasRight is the oracle outcome.
func (p *pagePredictor) train(bank, thread int, predictedOpen, openWasRight bool) {
	p.Decisions++
	if predictedOpen == openWasRight {
		p.Correct++
	}
	// Component predictions *before* training, for chooser scoring.
	for c := component(0); c < numComponents; c++ {
		was := p.predictComponent(c, bank, thread)
		sc := &p.chooser[bank][c]
		if was == openWasRight {
			if *sc < 7 {
				*sc++
			}
		} else if *sc > 0 {
			*sc--
		}
	}
	p.local[bank] = p.local[bank].update(openWasRight)
	p.global[thread] = p.global[thread].update(openWasRight)
}

// HitRate returns the fraction of resolved decisions the active policy
// got right.
func (p *pagePredictor) HitRate() float64 {
	if p.Decisions == 0 {
		return 0
	}
	return float64(p.Correct) / float64(p.Decisions)
}
