package nn

import (
	"fmt"
	"strconv"

	"aergia/internal/tensor"
)

// Arch identifies one of the network architectures used in the paper's
// evaluation. The MNIST/FMNIST model is a three-layer CNN (two conv, one
// fully connected); Cifar-10 uses an eight-layer CNN (six conv, two fully
// connected); the ResNet and VGG variants are used for the Figure 4 phase
// profiling. Channel counts are scaled down relative to the paper so the
// whole benchmark suite trains in seconds of wall time; the phase ratios
// and learning dynamics are preserved.
type Arch int

// Architectures evaluated in the paper.
const (
	ArchMNISTCNN Arch = iota + 1
	ArchFMNISTCNN
	ArchCifar10CNN
	ArchCifar10ResNet
	ArchCifar100VGG
	ArchCifar100ResNet
	// ArchMNISTSmall and ArchCifar10Small are the experiment-scale variants
	// used by the end-to-end federated runs: same layer structure classes
	// (conv feature section dominating compute, small FC classifier) on
	// downscaled inputs so full multi-strategy sweeps run in seconds.
	ArchMNISTSmall
	ArchFMNISTSmall
	ArchCifar10Small
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case ArchMNISTCNN:
		return "mnist-cnn"
	case ArchFMNISTCNN:
		return "fmnist-cnn"
	case ArchCifar10CNN:
		return "cifar10-cnn"
	case ArchCifar10ResNet:
		return "cifar10-resnet"
	case ArchCifar100VGG:
		return "cifar100-vgg"
	case ArchCifar100ResNet:
		return "cifar100-resnet"
	case ArchMNISTSmall:
		return "mnist-small"
	case ArchFMNISTSmall:
		return "fmnist-small"
	case ArchCifar10Small:
		return "cifar10-small"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// MarshalJSON encodes the architecture as its name, so experiment result
// records stay readable without the Arch numbering.
func (a Arch) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(a.String())), nil
}

// InShape returns the input image shape (C,H,W) expected by the
// architecture.
func (a Arch) InShape() []int {
	switch a {
	case ArchMNISTCNN, ArchFMNISTCNN:
		return []int{1, 28, 28}
	case ArchMNISTSmall, ArchFMNISTSmall:
		return []int{1, 14, 14}
	case ArchCifar10Small:
		return []int{3, 16, 16}
	default:
		return []int{3, 32, 32}
	}
}

// Classes returns the number of output classes.
func (a Arch) Classes() int {
	switch a {
	case ArchCifar100VGG, ArchCifar100ResNet:
		return 100
	default:
		return 10
	}
}

// BuildWith constructs a freshly initialized network for the architecture
// and installs the given compute backend (nil = serial). Initialization is
// backend-independent: weights are drawn from the seeded RNG on the calling
// goroutine, so networks built with the same seed are bit-identical across
// backends.
func BuildWith(a Arch, seed uint64, be tensor.Backend) (*Network, error) {
	n, err := Build(a, seed)
	if err != nil {
		return nil, err
	}
	if be != nil {
		n.SetBackend(be)
	}
	return n, nil
}

// Build constructs a freshly initialized network for the architecture.
// Networks built with the same seed are bit-identical, which the federator
// relies on to distribute a common initial model.
func Build(a Arch, seed uint64) (*Network, error) {
	return a.build(initParams{rng: tensor.NewRNG(seed)})
}

// Replica constructs a network for the architecture on the given backend
// (nil = serial) whose parameters are all zero and allocated directly in the
// backend's element type: no weight is drawn and none is converted. It is for
// a network that gets LoadWeights before its first forward pass — a client's
// local model, a helper's scratch, the evaluator — where an initialization
// would be overwritten unread.
func Replica(a Arch, be tensor.Backend) (*Network, error) {
	n, err := a.build(initParams{dt: backendOr(be).DType()})
	if err != nil {
		return nil, err
	}
	if be != nil {
		n.SetBackend(be)
	}
	return n, nil
}

// initParams is how an architecture's layers come by their parameters:
// float64 tensors with weights drawn from rng (Build), or, with a nil rng,
// zero tensors of dt (Replica).
type initParams struct {
	rng *tensor.RNG
	dt  tensor.DType
}

func (ip initParams) fill(weight *tensor.Tensor, std float64) {
	if ip.rng != nil {
		weight.FillNormal(ip.rng, std)
	}
}

// build assembles the architecture's layers. It is the one definition of
// every architecture; Build and Replica differ only in ip.
func (a Arch) build(ip initParams) (*Network, error) {
	switch a {
	case ArchMNISTCNN, ArchFMNISTCNN:
		// Paper: three-layer CNN — two convolutional, one fully connected.
		features := []Layer{
			ip.conv(1, 8, 5, 2, 1),
			NewReLU(),
			NewMaxPool(2),
			ip.conv(8, 16, 5, 2, 1),
			NewReLU(),
			NewMaxPool(2),
		}
		classifier := []Layer{
			NewFlatten(),
			ip.dense(16*7*7, 10),
		}
		return NewNetwork(a.InShape(), features, classifier)
	case ArchCifar10CNN:
		// Paper: eight-layer CNN — six convolutional, two fully connected.
		features := []Layer{
			ip.conv(3, 8, 3, 1, 1),
			NewReLU(),
			ip.conv(8, 8, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2),
			ip.conv(8, 16, 3, 1, 1),
			NewReLU(),
			ip.conv(16, 16, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2),
			ip.conv(16, 32, 3, 1, 1),
			NewReLU(),
			ip.conv(32, 32, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2),
		}
		classifier := []Layer{
			NewFlatten(),
			ip.dense(32*4*4, 64),
			NewReLU(),
			ip.dense(64, 10),
		}
		return NewNetwork(a.InShape(), features, classifier)
	case ArchCifar10ResNet:
		features := []Layer{
			ip.conv(3, 16, 3, 1, 1),
			NewReLU(),
			ip.residual(16),
			NewMaxPool(2),
			ip.residual(16),
			NewMaxPool(2),
		}
		classifier := []Layer{
			NewFlatten(),
			ip.dense(16*8*8, 10),
		}
		return NewNetwork(a.InShape(), features, classifier)
	case ArchCifar100VGG:
		features := []Layer{
			ip.conv(3, 16, 3, 1, 1),
			NewReLU(),
			ip.conv(16, 16, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2),
			ip.conv(16, 32, 3, 1, 1),
			NewReLU(),
			ip.conv(32, 32, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2),
		}
		classifier := []Layer{
			NewFlatten(),
			ip.dense(32*8*8, 128),
			NewReLU(),
			ip.dense(128, 100),
		}
		return NewNetwork(a.InShape(), features, classifier)
	case ArchMNISTSmall, ArchFMNISTSmall:
		// Two conv + one FC on 14×14, like the paper's MNIST model.
		features := []Layer{
			ip.conv(1, 6, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2),
			ip.conv(6, 12, 3, 1, 1),
			NewReLU(),
		}
		classifier := []Layer{
			NewFlatten(),
			ip.dense(12*7*7, 10),
		}
		return NewNetwork(a.InShape(), features, classifier)
	case ArchCifar10Small:
		// Four conv + two FC on 16×16, echoing the paper's deeper
		// Cifar-10 CNN (conv-heavy features, two dense classifier layers).
		features := []Layer{
			ip.conv(3, 8, 3, 1, 1),
			NewReLU(),
			ip.conv(8, 8, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2),
			ip.conv(8, 16, 3, 1, 1),
			NewReLU(),
			ip.conv(16, 16, 3, 1, 1),
			NewReLU(),
			NewMaxPool(2),
		}
		classifier := []Layer{
			NewFlatten(),
			ip.dense(16*4*4, 32),
			NewReLU(),
			ip.dense(32, 10),
		}
		return NewNetwork(a.InShape(), features, classifier)
	case ArchCifar100ResNet:
		features := []Layer{
			ip.conv(3, 16, 3, 1, 1),
			NewReLU(),
			ip.residual(16),
			ip.residual(16),
			NewMaxPool(2),
			ip.residual(16),
			NewMaxPool(2),
		}
		classifier := []Layer{
			NewFlatten(),
			ip.dense(16*8*8, 100),
		}
		return NewNetwork(a.InShape(), features, classifier)
	default:
		return nil, fmt.Errorf("nn: unknown architecture %d", int(a))
	}
}
