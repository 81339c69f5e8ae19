package core

import (
	"nshd/internal/nn"
)

// CostReport breaks down per-sample inference cost and model storage for one
// pipeline configuration. It feeds Fig. 5 (MACs) and Table II (model size).
type CostReport struct {
	// ExtractorMACs is the cut CNN prefix cost per sample.
	ExtractorMACs int64
	// ManifoldMACs is Ψ's FC cost (0 when the manifold is disabled).
	ManifoldMACs int64
	// LSHMACs is BaselineHD's hyperplane-hash cost (0 for NSHD).
	LSHMACs int64
	// EncodeMACs is the Φ_P binding/bundling cost (F·D or F̂·D).
	EncodeMACs int64
	// SimilarityMACs is the class-comparison cost (K·D).
	SimilarityMACs int64

	// ExtractorBytes is the cut CNN's parameter storage (float32).
	ExtractorBytes int64
	// ManifoldBytes is Ψ's parameter storage.
	ManifoldBytes int64
	// LSHBytes is BaselineHD's hyperplane storage (packed bipolar).
	LSHBytes int64
	// ProjectionBytes is the binary random projection, stored packed
	// (1 bit/element) as on the paper's GPU/FPGA targets.
	ProjectionBytes int64
	// ClassHVBytes is the class hypervector matrix (float32 K×D).
	ClassHVBytes int64
}

// TotalMACs is the per-sample inference cost.
func (c CostReport) TotalMACs() int64 {
	return c.ExtractorMACs + c.ManifoldMACs + c.LSHMACs + c.EncodeMACs + c.SimilarityMACs
}

// TotalBytes is the full model size in bytes (Table II).
func (c CostReport) TotalBytes() int64 {
	return c.ExtractorBytes + c.ManifoldBytes + c.LSHBytes + c.ProjectionBytes + c.ClassHVBytes
}

// Costs computes the pipeline's cost report from its real component graphs.
func (p *Pipeline) Costs() CostReport {
	var c CostReport
	ext := p.Extractor.Stats(p.Zoo.InShape)
	c.ExtractorMACs = ext.MACs
	c.ExtractorBytes = ext.Params * 4
	if p.Manifold != nil {
		ms := p.Manifold.Stats()
		c.ManifoldMACs = ms.MACs
		c.ManifoldBytes = ms.Params * 4
	} else {
		c.LSHMACs = p.LSH.EncodeMACs()
		c.LSHBytes = p.LSH.MemoryBytes(true)
	}
	c.EncodeMACs = p.Proj.EncodeMACs()
	c.ProjectionBytes = p.Proj.MemoryBytes(true)
	c.SimilarityMACs = p.HD.InferenceMACs()
	c.ClassHVBytes = p.HD.MemoryBytes(false)
	return c
}

// CNNCosts reports the original full CNN's per-sample MACs and parameter
// bytes — the baseline NSHD's savings are measured against.
func (p *Pipeline) CNNCosts() (macs int64, bytes int64) {
	s := p.Zoo.FullStats()
	return s.MACs, s.Params * 4
}

// CutStats exposes the extractor's full stats for tooling.
func (p *Pipeline) CutStats() nn.Stats { return p.Extractor.Stats(p.Zoo.InShape) }
