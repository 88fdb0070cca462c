"""2-D convolution with filter-wise droppable weights (Section IV-C).

The paper extends row dropout to CNNs by viewing weights *by filters*:
"if the j-th filter has the dropping label 0, all weights in this
filter are zeroed out".  We store the convolution kernel as a 2-D
matrix of shape ``(out_channels, in_channels * kh * kw)`` so that each
*row is one filter* — the existing :class:`repro.fl.rows.RowSpace`
machinery (patterns, masking, upload packing) then applies unchanged.

The forward pass uses im2col + one matmul, the standard vectorized
formulation (per the HPC guides: one big BLAS call instead of Python
loops over pixels).
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from .functional import linear, relu
from .layers import Linear
from .module import Module, Parameter
from .tensor import Tensor, as_tensor

__all__ = ["Conv2d", "CNNClassifier", "im2col"]


def im2col(
    images: np.ndarray, kh: int, kw: int, stride: int = 1
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(batch, channels, H, W)`` into convolution patches.

    Returns ``(patches, out_h, out_w)`` where patches has shape
    ``(batch, out_h * out_w, channels * kh * kw)``.  Built from a
    strided view, so no data is copied until the final reshape.
    """
    batch, channels, height, width = images.shape
    out_h = (height - kh) // stride + 1
    out_w = (width - kw) // stride + 1
    s0, s1, s2, s3 = images.strides
    windows = np.lib.stride_tricks.as_strided(
        images,
        shape=(batch, channels, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    # (batch, out_h, out_w, channels, kh, kw) -> rows of patches
    patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, channels * kh * kw
    )
    return np.ascontiguousarray(patches), out_h, out_w


class Conv2d(Module):
    """Valid-padding 2-D convolution whose rows are droppable filters.

    ``weight`` has shape ``(out_channels, in_channels * kh * kw)`` —
    one row per filter, matching the paper's filter-wise dropping
    pattern granularity.  Inputs are ``(..., batch, channels, H, W)``;
    a cohort stack's leading client axis rides along.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator | None = None,
        stride: int = 1,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            initializers.kaiming_uniform((out_channels, fan_in), rng),
            droppable=True,  # one pattern bit per filter row
        )
        self.bias = Parameter(initializers.zeros((out_channels,)))

    def forward(self, x: Tensor | np.ndarray) -> Tensor:
        x = as_tensor(x)
        lead = x.shape[:-3]
        weight, bias = self.weight, self.bias
        if len(lead) > 1:  # a cohort stack: fold clients into the batch for im2col
            x = x.reshape((-1,) + x.shape[-3:])
            # each client's filters broadcast over its own batch axis
            weight = weight.reshape((lead[0], 1) + weight.shape[1:])
            bias = bias.reshape((lead[0], 1, 1, -1))
        patches, out_h, out_w = im2col(
            x.numpy(), self.kernel_size, self.kernel_size, self.stride
        )
        patches_t = self._patch_tensor(x, patches)
        if len(lead) > 1:
            patches_t = patches_t.reshape(lead + patches.shape[1:])
        out = linear(patches_t, weight, bias)  # (..., B, P, out_channels)
        axes = tuple(range(len(lead))) + (len(lead) + 1, len(lead))
        return out.transpose(axes).reshape(lead + (self.out_channels, out_h, out_w))

    def _patch_tensor(self, x: Tensor, patches: np.ndarray) -> Tensor:
        """Wrap patches with a backward that folds gradients to the input."""
        if not x.requires_grad:
            return Tensor(patches)
        kh = kw = self.kernel_size
        stride = self.stride
        shape = x.numpy().shape

        def backward(grad: np.ndarray) -> list:
            batch, channels, height, width = shape
            out_h = (height - kh) // stride + 1
            out_w = (width - kw) // stride + 1
            g = grad.reshape(batch, out_h, out_w, channels, kh, kw)
            full = np.zeros(shape, dtype=np.float64)
            for i in range(kh):
                for j in range(kw):
                    full[:, :, i : i + out_h * stride : stride, j : j + out_w * stride : stride] += (
                        g[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                    )
            return [(x, full)]

        return Tensor._node(patches, (x,), backward)


class CNNClassifier(Module):
    """A small conv -> relu -> conv -> relu -> FC classifier.

    Demonstrates the paper's filter-wise dropout end to end: the two
    convolution layers contribute filter rows to the dropping pattern,
    the FC head behaves like the MLP (hidden rows droppable, softmax
    output protected).
    """

    def __init__(
        self,
        side: int,
        n_classes: int,
        channels: tuple[int, int] = (8, 16),
        kernel_size: int = 3,
        hidden: int = 32,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.side = side
        c1, c2 = channels
        self.conv1 = Conv2d(1, c1, kernel_size, rng)
        self.conv2 = Conv2d(c1, c2, kernel_size, rng)
        conv_out = side - 2 * (kernel_size - 1)
        if conv_out < 1:
            raise ValueError(f"side {side} too small for two {kernel_size}x{kernel_size} convs")
        self.flat_dim = c2 * conv_out * conv_out
        self.fc = Linear(self.flat_dim, hidden, rng, init="kaiming")
        self.head = Linear(hidden, n_classes, rng, init="xavier", droppable=False)

    def forward(self, x: np.ndarray | Tensor) -> Tensor:
        x = as_tensor(x)
        lead = x.shape[:-1]  # (batch,), or (c, batch) in a cohort stack
        images = x.reshape(lead + (1, self.side, self.side))
        h = relu(self.conv1(images))
        h = relu(self.conv2(h))
        h = h.reshape(lead + (self.flat_dim,))
        return self.head(relu(self.fc(h)))

    def loss(self, batch: tuple[np.ndarray, np.ndarray]) -> Tensor:
        from .functional import cross_entropy

        x, y = batch
        return cross_entropy(self.forward(x), y, axis=-1)

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        from .tensor import no_grad

        with no_grad():
            return self.forward(x).numpy()
