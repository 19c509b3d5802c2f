# Autodiff core walkthrough: build small computations, backpropagate, and
# verify analytic gradients against central finite differences.

import numpy as np

from meshseg.knn import KnnGraph
from meshseg.model import cross_entropy
from meshseg.tensor import BatchNormState, Tensor, gradient_check, shared_mlp

# A tensor is a numpy array plus a tape node.  Ops build the graph; a
# scalar's backward() fills every leaf's .grad.
x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True, dtype=np.float64)
loss = x.sum()
loss.backward()
print("d/dx sum(x) at [1,2,3]   ->", x.grad.reshape(-1), "(expect [1, 1, 1])")

# the per-cell cross-entropy is one tape node with a hand-written backward:
# its gradient is softmax(x) minus the one-hot label, and it agrees with
# central differences
x.grad = None
loss = cross_entropy(x, np.array([2]))
loss.backward()
print("cross_entropy([1,2,3], 2) ->", round(loss.item(), 5), "| gradient",
      np.round(x.grad.reshape(-1), 5), "| one node over x:", loss._parents == (x,))
err = gradient_check(lambda t: cross_entropy(t, np.array([2])), [x])
print(f"cross_entropy           -> max relative gradient error {err:.2e}")

# a KnnGraph's table of cell ids is checked once when built; gather reads
# per-cell rows out along its edges, and scatter_sum, the transpose that
# backward uses, adds per-edge rows back onto the cells they name
graph = KnnGraph(np.array([[1], [2], [1]]))
cells = np.array([[10.0], [20.0], [30.0]])
print("gather [[1],[2],[1]]    ->", graph.gather(cells).reshape(-1),
      "| scatter_sum of ones:", graph.scatter_sum(np.ones((3, 1, 1))).reshape(-1))

# the same harness the acceptance suite uses: max relative error between
# analytic gradients and central differences (step 1e-5, float64), here on
# the per-row MLP every layer runs, affine -> batch norm -> LeakyReLU as one
# node with a hand-written backward, under the loss
rng = np.random.default_rng(0)
w = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
b = Tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
state = BatchNormState(4, dtype=np.float64)
inp = Tensor(rng.normal(size=(6, 3)), requires_grad=True, dtype=np.float64)
labels = np.arange(6) % 4

def f(inp_, w_, b_, gamma, beta):
    state.gamma, state.beta = gamma, beta
    return cross_entropy(shared_mlp(inp_, w_, b_, state, train=True), labels)

err = gradient_check(f, [inp, w, b, state.gamma, state.beta])
print(f"shared_mlp (train mode) -> max relative gradient error {err:.2e}")
