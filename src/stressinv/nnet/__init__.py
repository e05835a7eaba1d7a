from . import tensor
from .tensor import Tensor, no_grad, mse_loss, NumericError
from .layers import (Module, Linear, LeakyReLU, ELU, LayerNorm, BatchNorm,
                     Dropout, Sequential, Residual, Conv1d, MaxPool1d,
                     Flatten, LSTM, he_uniform)
from .optim import (Adam, adamw, StepDecay, PlateauDecay, EarlyStopping,
                    train_network)
from .serialize import (save_checkpoint, load_checkpoint, arrays_to_json,
                        arrays_from_json, dump_json, load_json)
