import pitchkit


def test_public_api_is_pinned():
    # a new public name has to be a deliberate change to this list
    assert sorted(pitchkit.__all__) == sorted([
        "AudioBuffer", "PitchContour", "read_wav", "write_wav",
        "resample_linear", "read_contour_csv", "write_contour_csv",
        "spectrogram", "cents_error", "ModelParams", "init_params",
        "count_params", "save_params", "load_params", "DecoderConfig",
        "decode_contour", "EvalReport", "evaluate", "evaluate_noisy",
        "SynthSpec", "synth_example", "TrainConfig", "train_loop", "analyze",
    ])
    assert len(set(pitchkit.__all__)) == len(pitchkit.__all__)
    for name in pitchkit.__all__:
        assert hasattr(pitchkit, name), name
