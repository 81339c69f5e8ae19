package nn

// MergeWeightGrad is mergeWeightGrad for the tests that walk the model zoo,
// which import internal/cnn and so live outside the package.
var MergeWeightGrad = mergeWeightGrad
