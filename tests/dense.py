"""A dense reference for records: each record's probability from full matrices.

It shares no code with the package's probability path: it imports neither
`qselftest.hilbert` nor `qselftest.stats`. Each gate and branch projector
is embedded in the whole space as one matrix, the Kronecker product of its
own matrix and the identity on every other subsystem, whose rows and
columns are permuted into the layout's order by index arithmetic. The
source vector is multiplied through each record's prep and branches, and
the record's probability is the squared norm of the result. Of a device it
reads only the layout, the source vector, the gate matrices and the frames'
projectors. A layout above MAX_AMPS amplitudes is refused: its matrices
would be too large.
"""

import math

import numpy as np

MAX_AMPS = 1 << 10

# the full layout's order: every A wire, then every B wire, then every E wire
_SIDES = "ABE"


def embed(matrix, targets, dims):
    """matrix, acting on the subsystems targets in their listed order, as a
    matrix on the whole space of subsystems of dims."""
    order = list(targets) + [i for i in range(len(dims)) if i not in targets]
    rest = math.prod(dims) // len(matrix)
    # each basis state's digits, one per subsystem, read in the order
    # (targets, rest): its index in the Kronecker product's basis
    digits = np.indices(dims).reshape(len(dims), -1)
    index = np.ravel_multi_index(digits[order], [dims[i] for i in order])
    return np.kron(matrix, np.eye(rest))[np.ix_(index, index)]


class Reference:
    """One device's records, by full matrices; each matrix and prepared
    state is built once."""

    def __init__(self, device):
        lay = device.layout
        self.dims = lay.a_dims + lay.b_dims + lay.e_dims
        if math.prod(self.dims) > MAX_AMPS:
            raise ValueError(f"{math.prod(self.dims)} amplitudes, above {MAX_AMPS}")
        self.device = device
        self.n = lay.n_wires
        self.matrices = {}
        self.prepared = {(): np.array(device.source.vec)}

    def subsystem(self, side, wire):
        return _SIDES.index(side) * self.n + wire

    def gate(self, side, label):
        key = (side, label)
        if key not in self.matrices:
            g = self.device.gates[key]
            targets = [self.subsystem(side, w) for w in g.wires]
            self.matrices[key] = embed(g.matrix, targets, self.dims)
        return self.matrices[key]

    def branch(self, side, wire, angle):
        key = (side, wire, angle)
        if key not in self.matrices:
            projector = self.device.frames[(side, wire)].projector(angle)
            self.matrices[key] = embed(projector, [self.subsystem(side, wire)], self.dims)
        return self.matrices[key]

    def state(self, prep):
        """The source vector after the prep's gates, in order."""
        prep = tuple(tuple(step) for step in prep)
        if prep not in self.prepared:
            self.prepared[prep] = self.gate(*prep[-1]) @ self.state(prep[:-1])
        return self.prepared[prep]

    def probabilities(self, experiments):
        """Each record's probability, in record order: one per setting of
        every experiment."""
        out = []
        for exp in experiments:
            prepared = self.state(exp.prep)
            for branches in exp.branches:
                v = prepared
                for side, wire, angle in branches:
                    v = self.branch(side, wire, angle) @ v
                out.append(np.vdot(v, v).real)
        return np.array(out)
