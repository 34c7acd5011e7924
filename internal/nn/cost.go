package nn

// PhaseCost holds the per-sample FLOP counts of the four training phases of
// a local update (Figure 3 of the paper): forward pass through the feature
// layers (FF), forward pass through the classifier layers (FC), backward
// pass through the classifier layers (BC), and backward pass through the
// feature layers (BF).
type PhaseCost struct {
	FF float64 `json:"ff"`
	FC float64 `json:"fc"`
	BC float64 `json:"bc"`
	BF float64 `json:"bf"`
}

// Total returns the FLOPs of a full training cycle (all four phases).
func (p PhaseCost) Total() float64 { return p.FF + p.FC + p.BC + p.BF }

// Shares returns each phase's fraction of the total (ff, fc, bc, bf).
func (p PhaseCost) Shares() (ff, fc, bc, bf float64) {
	t := p.Total()
	if t == 0 {
		return 0, 0, 0, 0
	}
	return p.FF / t, p.FC / t, p.BC / t, p.BF / t
}

// PhaseFLOPs computes the per-sample FLOPs of each training phase by
// walking the network's layers with the configured input shape.
func (n *Network) PhaseFLOPs() (PhaseCost, error) {
	var cost PhaseCost
	shape := append([]int(nil), n.InShape...)
	var err error
	for _, l := range n.Features {
		cost.FF += l.ForwardFLOPs(shape)
		cost.BF += l.BackwardFLOPs(shape)
		if shape, err = l.OutShape(shape); err != nil {
			return PhaseCost{}, err
		}
	}
	for _, l := range n.Classifier {
		cost.FC += l.ForwardFLOPs(shape)
		cost.BC += l.BackwardFLOPs(shape)
		if shape, err = l.OutShape(shape); err != nil {
			return PhaseCost{}, err
		}
	}
	return cost, nil
}

// PhaseFLOPs computes the per-sample phase costs of the architecture: those
// of every network built from it, since they depend on layer shapes alone.
func (a Arch) PhaseFLOPs() (PhaseCost, error) {
	n, err := Replica(a, nil)
	if err != nil {
		return PhaseCost{}, err
	}
	return n.PhaseFLOPs()
}
