"""Audio path: spectrogram DSP, the voice/non-voice classifier, and the
training and cross-validation procedures around it."""
