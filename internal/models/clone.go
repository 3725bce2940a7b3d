package models

import "edgetta/internal/nn"

// Clone deep-copies the model: the returned Model shares no mutable
// backing arrays with the original (parameters, gradients, BN statistics).
// The serving layer's replica manager uses this to stamp out independent
// copies that can adapt concurrently.
func (m *Model) Clone() *Model {
	cp := *m
	cp.Net = nn.Clone(m.Net)
	cp.arena = nil // the clone's first pass makes and attaches its own
	return &cp
}

func cloneBN(b *nn.BatchNorm2d) *nn.BatchNorm2d { return b.CloneLayer().(*nn.BatchNorm2d) }
func cloneConv(c *nn.Conv2d) *nn.Conv2d         { return c.CloneLayer().(*nn.Conv2d) }
func cloneReLU(r *nn.ReLU) *nn.ReLU             { return r.CloneLayer().(*nn.ReLU) }

// CloneLayer implements nn.Cloner.
func (b *PreActBlock) CloneLayer() nn.Layer {
	c := &PreActBlock{
		name:  b.name,
		bn1:   cloneBN(b.bn1),
		relu1: cloneReLU(b.relu1),
		conv1: cloneConv(b.conv1),
		bn2:   cloneBN(b.bn2),
		relu2: cloneReLU(b.relu2),
		conv2: cloneConv(b.conv2),
	}
	if b.convSC != nil {
		c.convSC = cloneConv(b.convSC)
	}
	return c
}

// CloneLayer implements nn.Cloner.
func (b *ResNeXtBlock) CloneLayer() nn.Layer {
	c := &ResNeXtBlock{
		name:    b.name,
		conv1:   cloneConv(b.conv1),
		bn1:     cloneBN(b.bn1),
		relu1:   cloneReLU(b.relu1),
		conv2:   cloneConv(b.conv2),
		bn2:     cloneBN(b.bn2),
		relu2:   cloneReLU(b.relu2),
		conv3:   cloneConv(b.conv3),
		bn3:     cloneBN(b.bn3),
		reluOut: cloneReLU(b.reluOut),
	}
	if b.convSC != nil {
		c.convSC = cloneConv(b.convSC)
		c.bnSC = cloneBN(b.bnSC)
	}
	return c
}

// CloneLayer implements nn.Cloner.
func (b *InvertedResidual) CloneLayer() nn.Layer {
	c := &InvertedResidual{
		name:     b.name,
		dw:       cloneConv(b.dw),
		bnD:      cloneBN(b.bnD),
		reluD:    cloneReLU(b.reluD),
		project:  cloneConv(b.project),
		bnP:      cloneBN(b.bnP),
		residual: b.residual,
	}
	if b.expand != nil {
		c.expand = cloneConv(b.expand)
		c.bnE = cloneBN(b.bnE)
		c.reluE = cloneReLU(b.reluE)
	}
	return c
}
