"""Synthetic dataset generators (MNIST / CIFAR-10 / ImageNet / MobileNet
stand-ins)."""

from repro.datasets.base import Dataset
from repro.datasets.synthetic_cifar import make_cifar
from repro.datasets.synthetic_imagenet import make_imagenet
from repro.datasets.synthetic_mnist import make_mnist
from repro.datasets.synthetic_mobilenet import make_mobilenet

__all__ = [
    "Dataset",
    "make_cifar",
    "make_imagenet",
    "make_mnist",
    "make_mobilenet",
]
