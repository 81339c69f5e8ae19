package tsne

import "nshd/internal/tensor"

// KL returns the final Kullback-Leibler divergence between the
// high-dimensional affinities of data and the embedding y's Student-t
// affinities — the t-SNE objective value the tests compare embeddings by.
func KL(data, y *tensor.Tensor, perplexity float64) float64 {
	p := affinities(data, perplexity)
	_, kl := gradient(p, y, 1)
	return kl
}
