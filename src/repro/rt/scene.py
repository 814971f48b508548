"""The traversable scene: layered sphere sets with per-layer BVHs.

JUNO places the codebook entries of subspace ``s`` at depth ``z = 2s + 1``
(Alg. 1, lines 10-13) so that rays cast from ``z = 2s`` with ``t_max <= 1``
can only interact with the entries of their own subspace.  The scene mirrors
that organisation: each *layer* owns the spheres of one subspace and its own
BVH, which is also how an OptiX geometry-acceleration structure per subspace
would behave.

For the batch tracer the scene also has a *stacked* flat form
(:meth:`TraversableScene.stacked`): the median-split BVH's topology depends
only on the sphere count and the leaf size, so layers with equally many
spheres share one parent/level/leaf-range description and differ only in
node bounds, leaf primitive order, centres and radii.  Those are stored with
a leading layer axis (:class:`LayerStack`), which lets one pass of slab tests
traverse a whole block of layers at once.  The stack's ``(leaf, lane)``
grid is also the column order of the dense hit grid the tracer returns and
of the selective LUT built from it: sphere ``e`` of a layer sits in column
``entry_slots[layer, e]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rt.bvh import BVH
from repro.rt.primitives import Sphere


@dataclass
class SceneLayer:
    """All spheres of one subspace, plus their acceleration structure.

    Attributes:
        layer_id: subspace index ``s``.
        z: depth of the sphere centres (``2s + 1`` in JUNO's convention).
        centres_xy: ``(E, 2)`` sphere centres in the subspace plane.
        radii: ``(E,)`` sphere radii.
        spheres: the :class:`Sphere` objects (payload carries entry ids).
        bvh: BVH over the layer's spheres.
    """

    layer_id: int
    z: float
    centres_xy: np.ndarray
    radii: np.ndarray
    spheres: list[Sphere] = field(default_factory=list)
    bvh: BVH | None = None

    @property
    def num_spheres(self) -> int:
        """Number of spheres (codebook entries) in this layer."""
        return int(self.centres_xy.shape[0])


@dataclass(frozen=True)
class LayerStack:
    """Flat arrays of all layers that share one BVH topology.

    ``L`` layers, each a tree of ``M`` nodes and ``F`` leaves of at most
    ``W`` spheres.  The topology arrays are shared; everything that depends
    on where the spheres are carries a leading layer axis, so a run of
    adjacent layers is a basic slice of every array.  Sphere data is stored
    in leaf order on an ``(F, W)`` grid: the lanes a short leaf leaves empty
    hold a squared radius of ``-1``, which no ray can be inside of.

    Attributes:
        layer_ids: ``(L,)`` scene layer id of every stacked layer.
        z: ``(L,)`` depth of each layer's sphere centres.
        parent: ``(M,)`` parent node index (``-1`` for the root).
        level_offsets: breadth-first level boundaries (see
            :meth:`repro.rt.bvh.FlatBVH.topology`).
        leaf_nodes: ``(F,)`` ascending node indices of the leaves.
        leaf_count: ``(F,)`` spheres per leaf.
        node_min: ``(L, 3, M)`` lower AABB corners, one row per axis.
        node_max: ``(L, 3, M)`` upper AABB corners, one row per axis.
        leaf_primitives: ``(L, F, W)`` sphere index within the layer.
        leaf_centres_x: ``(L, F, W)`` sphere centre x.
        leaf_centres_y: ``(L, F, W)`` sphere centre y.
        leaf_radii_sq: ``(L, F, W)`` squared sphere radius (``-1`` in empty
            lanes).
        entry_slots: ``(L, E)`` ``int32`` flat ``leaf * W + lane`` slot of
            every sphere of a layer -- the inverse of ``leaf_primitives``
            over the filled lanes.
    """

    layer_ids: np.ndarray
    z: np.ndarray
    parent: np.ndarray
    level_offsets: np.ndarray
    leaf_nodes: np.ndarray
    leaf_count: np.ndarray
    node_min: np.ndarray
    node_max: np.ndarray
    leaf_primitives: np.ndarray
    leaf_centres_x: np.ndarray
    leaf_centres_y: np.ndarray
    leaf_radii_sq: np.ndarray
    entry_slots: np.ndarray

    @property
    def num_slots(self) -> int:
        """Slots ``F * W`` of one layer's leaf grid (at least ``E``)."""
        return int(self.leaf_primitives.shape[1] * self.leaf_primitives.shape[2])


def _stack_layers(layers: list[SceneLayer]) -> LayerStack:
    """Stack layers with equally many spheres (hence one shared topology)."""
    flats = [layer.bvh.flatten() for layer in layers]
    parent, level_offsets, leaf_nodes = flats[0].topology()
    leaf_count = flats[0].leaf_count[leaf_nodes]
    lanes = np.arange(int(leaf_count.max(initial=0)))
    filled = lanes < leaf_count[:, None]
    # Position of every (leaf, lane) in a layer's leaf-ordered primitive
    # list; empty lanes repeat the leaf's first primitive and are masked
    # out through their radius.
    slots = flats[0].leaf_start[leaf_nodes][:, None] + np.where(filled, lanes, 0)
    primitives = np.stack([flat.leaf_primitives for flat in flats])[:, slots]
    entry_slots = np.empty((len(layers), int(leaf_count.sum())), dtype=np.int32)
    # a sphere's slot is the flat (leaf, lane) index of the filled lane holding it
    np.put_along_axis(entry_slots, primitives[:, filled], np.flatnonzero(filled)[None], axis=1)
    rows = np.arange(len(layers))[:, None, None]
    centres = np.stack([layer.centres_xy for layer in layers])
    radii_sq = np.stack([layer.radii for layer in layers]) ** 2
    stack = LayerStack(
        layer_ids=np.array([layer.layer_id for layer in layers], dtype=np.int64),
        z=np.array([layer.z for layer in layers], dtype=np.float64),
        parent=parent,
        level_offsets=level_offsets,
        leaf_nodes=leaf_nodes,
        leaf_count=leaf_count,
        node_min=np.stack([flat.node_min.T for flat in flats]),
        node_max=np.stack([flat.node_max.T for flat in flats]),
        leaf_primitives=primitives,
        leaf_centres_x=centres[rows, primitives, 0],
        leaf_centres_y=centres[rows, primitives, 1],
        leaf_radii_sq=np.where(filled, radii_sq[rows, primitives], -1.0),
        entry_slots=entry_slots,
    )
    # The batch tracer takes the slab mask for the traversal: boxes must be nested.
    low, high, up = stack.node_min, stack.node_max, parent[1:]
    nested = (low[..., 1:] >= low[..., up]) & (high[..., 1:] <= high[..., up])
    if not nested.all():
        loose = stack.layer_ids[~nested.all(axis=(1, 2))].tolist()
        raise ValueError(f"BVH node boxes of layer(s) {loose} are not nested in their parents'")
    return stack


class TraversableScene:
    """Layered sphere scene with one BVH per layer.

    Args:
        leaf_size: BVH leaf size used for every layer.
    """

    def __init__(self, leaf_size: int = 4) -> None:
        self.leaf_size = int(leaf_size)
        self.layers: dict[int, SceneLayer] = {}
        self._stacked: tuple[list[LayerStack], dict[int, tuple[int, int]]] | None = None

    # ------------------------------------------------------------ building
    def add_layer(
        self,
        layer_id: int,
        centres_xy: np.ndarray,
        radii: np.ndarray | float,
        z: float | None = None,
        payloads: list[dict] | None = None,
    ) -> SceneLayer:
        """Create a layer of spheres for one subspace.

        Args:
            layer_id: subspace index ``s``.
            centres_xy: ``(E, 2)`` entry coordinates in the subspace plane.
            radii: scalar or ``(E,)`` sphere radii.
            z: depth of the sphere centres; defaults to ``2 * layer_id + 1``.
            payloads: optional per-sphere payload dicts; defaults to
                ``{"entry_id": e, "subspace_id": layer_id}``.

        Returns:
            The constructed :class:`SceneLayer`.
        """
        centres_xy = np.atleast_2d(np.asarray(centres_xy, dtype=np.float64))
        if centres_xy.shape[1] != 2:
            raise ValueError("centres_xy must have shape (E, 2)")
        num_entries = centres_xy.shape[0]
        radii_arr = np.broadcast_to(
            np.asarray(radii, dtype=np.float64), (num_entries,)
        ).copy()
        if np.any(radii_arr <= 0):
            raise ValueError("all sphere radii must be positive")
        if z is None:
            z = 2.0 * layer_id + 1.0
        spheres = []
        for entry_id in range(num_entries):
            payload = (
                payloads[entry_id]
                if payloads is not None
                else {"entry_id": entry_id, "subspace_id": layer_id}
            )
            centre = np.array([centres_xy[entry_id, 0], centres_xy[entry_id, 1], z])
            spheres.append(Sphere(centre=centre, radius=float(radii_arr[entry_id]), payload=payload))
        layer = SceneLayer(
            layer_id=int(layer_id),
            z=float(z),
            centres_xy=centres_xy,
            radii=radii_arr,
            spheres=spheres,
            bvh=BVH(spheres, leaf_size=self.leaf_size),
        )
        self.layers[int(layer_id)] = layer
        self._stacked = None
        return layer

    def stacked(self) -> tuple[list[LayerStack], dict[int, tuple[int, int]]]:
        """The stacked flat form of the scene (built on first use, cached).

        Layers are grouped by sphere count, in insertion order within a
        group; a JUNO scene (every subspace has ``E`` entries) is a single
        stack.  Adding a layer drops the cache.

        Returns:
            ``(stacks, slot)`` where ``slot[layer_id]`` is the ``(stack
            index, position in the stack)`` of a layer.
        """
        if self._stacked is None:
            groups: dict[int, list[SceneLayer]] = {}
            for layer in self.layers.values():
                groups.setdefault(layer.num_spheres, []).append(layer)
            stacks = [_stack_layers(group) for group in groups.values()]
            slot = {
                int(layer_id): (index, position)
                for index, stack in enumerate(stacks)
                for position, layer_id in enumerate(stack.layer_ids)
            }
            self._stacked = (stacks, slot)
        return self._stacked

    def entry_slots(self, layer_id: int) -> np.ndarray:
        """``(E,)`` column of every sphere of a layer in the batch tracer's
        dense hit grid (see :attr:`LayerStack.entry_slots`)."""
        stacks, slot = self.stacked()
        group, position = slot[int(layer_id)]
        return stacks[group].entry_slots[position]

    @property
    def num_slots(self) -> int:
        """Columns of the dense hit grid: the slots of the widest stack."""
        return max((stack.num_slots for stack in self.stacked()[0]), default=0)

    @property
    def num_layers(self) -> int:
        """Number of layers (subspaces) in the scene."""
        return len(self.layers)

    @property
    def num_spheres(self) -> int:
        """Total number of spheres across all layers."""
        return sum(layer.num_spheres for layer in self.layers.values())

    def layer(self, layer_id: int) -> SceneLayer:
        """Look up one layer by id."""
        if layer_id not in self.layers:
            raise KeyError(f"layer {layer_id} has not been added to the scene")
        return self.layers[layer_id]
