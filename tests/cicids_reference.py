"""Published CICIDS2017 reference figures used as test oracles.

Counts are 80/20 split sizes of the grouped dataset; the imbalance ratios,
level assignments, augmentation targets, and per-class F1 columns are
published reference results for this augmentation policy on CICIDS2017.
"""

TRAIN_COUNTS = {
    "BENIGN": 1818476,
    "DoS/DDoS": 304550,
    "PortScan": 127144,
    "Patator": 11068,
    "Web Attack": 1744,
    "Bot": 1573,
    "Infiltration": 29,
    "Heartbleed": 9,
}

TEST_COUNTS = {
    "BENIGN": 454620,
    "DoS/DDoS": 76138,
    "PortScan": 31785,
    "Patator": 2767,
    "Web Attack": 436,
    "Bot": 393,
    "Infiltration": 7,
    "Heartbleed": 2,
}

FULL_COUNTS = {name: TRAIN_COUNTS[name] + TEST_COUNTS[name] for name in TRAIN_COUNTS}

# imbalance ratios as published (majority class implied at 1.0)
PUBLISHED_IRS = {
    "BENIGN": 1.0,
    "DoS/DDoS": 5.98,
    "PortScan": 14.31,
    "Patator": 164.33,
    "Web Attack": 1042.28,
    "Bot": 1156.92,
    "Infiltration": 63141.03,
    "Heartbleed": 206645.18,
}

PUBLISHED_LEVELS = {
    "BENIGN": "ample",
    "DoS/DDoS": "ample",
    "PortScan": "ample",
    "Patator": "scarce",
    "Web Attack": "scarce",
    "Bot": "scarce",
    "Infiltration": "rare",
    "Heartbleed": "rare",
}

AFTER_AUGMENTATION = {
    "BENIGN": 1818476,
    "DoS/DDoS": 304550,
    "PortScan": 127144,
    "Patator": 127144,
    "Web Attack": 127144,
    "Bot": 127144,
    "Infiltration": 1573,
    "Heartbleed": 1573,
}

CLASS_ORDER = ["BENIGN", "DoS/DDoS", "PortScan", "Patator", "Web Attack", "Bot",
               "Infiltration", "Heartbleed"]

# per-class F1 columns of the published multi-class results
F1_BASELINE = [0.9932, 0.9944, 0.9223, 0.9870, 0.9566, 0.5417, 0.0000, 0.0000]
F1_SMOTE = [0.9908, 0.9935, 0.9160, 0.9870, 0.3760, 0.6451, 0.7692, 1.0000]
F1_S2CGAN = [0.9929, 0.9944, 0.9212, 0.9672, 0.9794, 0.6705, 0.8333, 1.0000]

# the header line of the distributed day files: 78 feature columns, most
# with a leading space, Fwd Header Length twice, then the label column
HEADER = (
    " Destination Port, Flow Duration, Total Fwd Packets, Total Backward Packets,"
    "Total Length of Fwd Packets, Total Length of Bwd Packets, Fwd Packet Length Max,"
    " Fwd Packet Length Min, Fwd Packet Length Mean, Fwd Packet Length Std,"
    "Bwd Packet Length Max, Bwd Packet Length Min, Bwd Packet Length Mean,"
    " Bwd Packet Length Std,Flow Bytes/s, Flow Packets/s, Flow IAT Mean, Flow IAT Std,"
    " Flow IAT Max, Flow IAT Min,Fwd IAT Total, Fwd IAT Mean, Fwd IAT Std, Fwd IAT Max,"
    " Fwd IAT Min,Bwd IAT Total, Bwd IAT Mean, Bwd IAT Std, Bwd IAT Max, Bwd IAT Min,"
    "Fwd PSH Flags, Bwd PSH Flags, Fwd URG Flags, Bwd URG Flags, Fwd Header Length,"
    " Bwd Header Length,Fwd Packets/s, Bwd Packets/s, Min Packet Length,"
    " Max Packet Length, Packet Length Mean, Packet Length Std, Packet Length Variance,"
    "FIN Flag Count, SYN Flag Count, RST Flag Count, PSH Flag Count, ACK Flag Count,"
    " URG Flag Count, CWE Flag Count, ECE Flag Count, Down/Up Ratio, Average Packet Size,"
    " Avg Fwd Segment Size, Avg Bwd Segment Size, Fwd Header Length,Fwd Avg Bytes/Bulk,"
    " Fwd Avg Packets/Bulk, Fwd Avg Bulk Rate, Bwd Avg Bytes/Bulk, Bwd Avg Packets/Bulk,"
    "Bwd Avg Bulk Rate,Subflow Fwd Packets, Subflow Fwd Bytes, Subflow Bwd Packets,"
    " Subflow Bwd Bytes,Init_Win_bytes_forward, Init_Win_bytes_backward,"
    " act_data_pkt_fwd, min_seg_size_forward,Active Mean, Active Std, Active Max,"
    " Active Min,Idle Mean, Idle Std, Idle Max, Idle Min, Label"
)

# the 15 raw sub-labels as the files' bytes: the Web Attack ones hold the
# cp1252 en dash 0x96
RAW_LABELS = [b"BENIGN", b"DoS Hulk", b"PortScan", b"DDoS", b"DoS GoldenEye", b"FTP-Patator",
              b"SSH-Patator", b"DoS slowloris", b"DoS Slowhttptest", b"Bot",
              b"Web Attack \x96 Brute Force", b"Web Attack \x96 XSS", b"Infiltration",
              b"Web Attack \x96 Sql Injection", b"Heartbleed"]
