from .api import (PREDICTOR_KINDS, DOMAIN_MODES, default_config,
                  DnnPredictorConfig, KnnConfig, RandomForestConfig, GbtConfig,
                  Cnn1dConfig, LstmConfig, TrainedPredictor, train_predictor,
                  predict_batch, build_inputs,
                  save_predictor, load_predictor)
from .neural import build_dnn, CurveCNN, CurveLSTM, train_network, consistency_penalty
from .neighbors import KNNRegressor
from .trees import RegressionTree, RandomForest, GradientBoosting
